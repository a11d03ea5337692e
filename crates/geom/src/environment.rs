//! Workspace environments: bounds + obstacles + geometric queries.

use crate::aabb::Aabb;
use crate::batch::{BatchEnv, LANES, SQ_ULP};
use crate::grid::Grid;
use crate::obstacle::Obstacle;
use crate::point::Point;
use crate::ray::Ray;
use std::sync::OnceLock;

/// A motion-planning workspace: a bounding box and a set of solid obstacles.
///
/// ```
/// use smp_geom::{envs, Point};
/// let env = envs::med_cube();
/// assert!(env.is_valid(&Point::splat(0.05), 0.0));   // corner: free
/// assert!(!env.is_valid(&Point::splat(0.5), 0.0));   // center: obstacle
/// assert!((env.blocked_fraction() - 0.24).abs() < 1e-9);
/// ```
///
/// The robot model used throughout the reproduction is a ball of radius `r`
/// in `R^D` (see DESIGN.md for why this substitution preserves the paper's
/// load-balance behaviour); validity queries therefore take a clearance
/// radius.
#[derive(Debug, Clone)]
pub struct Environment<const D: usize> {
    name: String,
    bounds: Aabb<D>,
    obstacles: Vec<Obstacle<D>>,
    /// True when the obstacles are known to be pairwise disjoint, enabling
    /// exact free-volume computation by summation.
    disjoint_obstacles: bool,
    /// Broad-phase acceleration structure; see [`BroadEntry`].
    broad: Vec<BroadEntry<D>>,
    /// Lazily-built SoA mirror of `broad` for the batch kernels (see
    /// [`crate::batch`]), built on first use, so every construction path gets
    /// it for free. The distributed backend's hand codec (`put_env` /
    /// `get_env` in `smp-core`'s `dist.rs`) never encodes it: it sends the
    /// obstacles and decodes through [`Environment::new`].
    batch: OnceLock<BatchEnv<D>>,
    /// Lazily-built uniform grid over the boxes and spheres (see
    /// [`crate::grid`]); `None` below the grid's obstacle threshold, where
    /// the linear SoA scan runs. Never encoded, like `batch`.
    grid: OnceLock<Option<Grid<D>>>,
}

/// One broad-phase record, ordered by descending bounding-box volume (large
/// obstacles are the likeliest to reject a sample, so checking them first
/// makes `is_valid`'s early exit cheapest). Box and sphere obstacles carry
/// their defining geometry inline, turning validity testing into a flat,
/// cache-friendly scan that never dereferences the obstacle list.
#[derive(Debug, Clone)]
struct BroadEntry<const D: usize> {
    idx: u32,
    phase: BroadPhase<D>,
}

/// How an obstacle's validity contribution is decided.
#[derive(Debug, Clone)]
enum BroadPhase<const D: usize> {
    /// A box: its exact Euclidean distance is the AABB distance, and
    /// containment is exactly `distance == 0`, so one distance evaluation
    /// settles both halves of the validity predicate.
    Box(Aabb<D>),
    /// A sphere: `(|p - center| - radius).max(0)` is the exact distance and
    /// zero iff contained — again one evaluation.
    Sphere { center: Point<D>, radius: f64 },
    /// Convex polytopes always take the narrow phase: their `distance` is a
    /// *conservative halfspace lower bound* that can undercut any bounding
    /// geometry, so no precomputed test can stand in for it.
    Narrow,
}

fn broad_phase<const D: usize>(obstacles: &[Obstacle<D>]) -> Vec<BroadEntry<D>> {
    let mut order: Vec<(f64, u32)> = obstacles
        .iter()
        .enumerate()
        .map(|(i, o)| (o.bounding_box().volume(), i as u32))
        .collect();
    // deterministic order: volume descending, original index on ties
    order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    order
        .into_iter()
        .map(|(_, idx)| {
            let phase = match &obstacles[idx as usize] {
                Obstacle::Box(bb) => BroadPhase::Box(*bb),
                Obstacle::Sphere { center, radius } => BroadPhase::Sphere {
                    center: *center,
                    radius: *radius,
                },
                Obstacle::Convex(_) => BroadPhase::Narrow,
            };
            BroadEntry { idx, phase }
        })
        .collect()
}

/// Visit the midpoints of a `res`-per-axis (at least 2) grid over
/// `region`, axis 0 fastest — the probe points of
/// [`Environment::obstacle_volume_in_estimate`].
pub(crate) fn for_each_midpoint<const D: usize>(
    region: &Aabb<D>,
    res: usize,
    mut f: impl FnMut(Point<D>),
) {
    let n = res.max(2);
    let ext = region.extents();
    let mut idx = vec![0usize; D];
    loop {
        let mut p = region.lo();
        for i in 0..D {
            p[i] += ext[i] * ((idx[i] as f64 + 0.5) / n as f64);
        }
        f(p);
        let mut i = 0;
        loop {
            if i == D {
                return;
            }
            idx[i] += 1;
            if idx[i] < n {
                break;
            }
            idx[i] = 0;
            i += 1;
        }
    }
}

impl<const D: usize> Environment<D> {
    /// New environment. `disjoint` should be true only when the caller
    /// guarantees obstacles do not overlap each other.
    pub fn new(
        name: impl Into<String>,
        bounds: Aabb<D>,
        obstacles: Vec<Obstacle<D>>,
        disjoint: bool,
    ) -> Self {
        let broad = broad_phase(&obstacles);
        Environment {
            name: name.into(),
            bounds,
            obstacles,
            disjoint_obstacles: disjoint,
            broad,
            batch: OnceLock::new(),
            grid: OnceLock::new(),
        }
    }

    /// The SoA batch mirror of the broad phase, built on first use. The
    /// builder walks `broad` in order, so both layouts share the
    /// volume-descending obstacle order.
    fn batch(&self) -> &BatchEnv<D> {
        self.batch.get_or_init(|| {
            let mut boxes = Vec::new();
            let mut spheres = Vec::new();
            let mut narrow = Vec::new();
            for e in &self.broad {
                match &e.phase {
                    BroadPhase::Box(bb) => boxes.push(*bb),
                    BroadPhase::Sphere { center, radius } => spheres.push((*center, *radius)),
                    BroadPhase::Narrow => narrow.push(e.idx),
                }
            }
            BatchEnv::from_parts(boxes, spheres, narrow)
        })
    }

    /// The uniform grid, built on first use in the broad phase's order.
    pub(crate) fn grid(&self) -> Option<&Grid<D>> {
        self.grid
            .get_or_init(|| {
                let order: Vec<u32> = self.broad.iter().map(|e| e.idx).collect();
                Grid::build(&self.bounds, &self.obstacles, &order)
            })
            .as_ref()
    }

    /// Full validity of one point: bounds, boxes and spheres (through the
    /// grid when there is one, else the whole SoA set), then the convex
    /// narrow phase. Fewer obstacles than one SoA chunk take the scalar
    /// loop: a padded chunk costs more than the one to three entries it
    /// holds (on a one-box cube, about twice the scalar loop per point).
    /// `c2` is the one-ulp-inflated `clearance²`.
    #[inline]
    fn valid_at(&self, p: &Point<D>, clearance: f64, c2: f64) -> bool {
        if self.broad.len() < LANES {
            return self.scalar_at(p, clearance, c2);
        }
        if !self.bounds.contains(p) {
            return false;
        }
        let batch = self.batch();
        let clear = match self.grid() {
            Some(grid) => grid.boxes_spheres_valid(p, clearance, c2),
            None => batch.boxes_spheres_valid(p, clearance, c2),
        };
        clear
            && batch.narrow_indices().iter().all(|&idx| {
                let o = &self.obstacles[idx as usize];
                !(o.contains(p) || o.distance(p) < clearance)
            })
    }

    /// Obstacle-free environment.
    pub fn free_space(name: impl Into<String>, bounds: Aabb<D>) -> Self {
        Self::new(name, bounds, Vec::new(), true)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn bounds(&self) -> &Aabb<D> {
        &self.bounds
    }

    pub fn obstacles(&self) -> &[Obstacle<D>] {
        &self.obstacles
    }

    /// True when obstacles are declared pairwise disjoint.
    pub fn has_disjoint_obstacles(&self) -> bool {
        self.disjoint_obstacles
    }

    /// Is the ball of radius `clearance` centered at `p` inside the bounds
    /// and collision-free?
    ///
    /// Routed through the SoA batch kernel ([`crate::batch`]) once there
    /// are at least [`LANES`] obstacles: boxes and spheres are tested four
    /// obstacles per step with per-lane scalar decisions, so the verdict is
    /// bit-identical to [`Self::is_valid_scalar`] (proven by differential
    /// tests); only convex polytopes pay for the narrow phase. With at least
    /// 16 boxes and spheres the kernel runs only on the uniform-grid cells
    /// the clearance ball can reach. Fewer obstacles run the scalar loop.
    pub fn is_valid(&self, p: &Point<D>, clearance: f64) -> bool {
        self.valid_at(p, clearance, clearance * clearance * SQ_ULP)
    }

    /// Index of the first point in `pts` that fails `is_valid`, or `None`
    /// when all pass. Decision-identical to calling [`Self::is_valid`] on
    /// each point in order — points are visited one at a time, so work stops
    /// exactly where the scalar path would — the local planner's edge
    /// checks go through here.
    pub fn first_invalid(&self, pts: &[Point<D>], clearance: f64) -> Option<usize> {
        let c2 = clearance * clearance * SQ_ULP;
        pts.iter().position(|p| !self.valid_at(p, clearance, c2))
    }

    /// Scalar reference implementation of [`Self::is_valid`]: the verbatim
    /// pre-batch loop over the inline broad-phase entries, the differential
    /// oracle the batch kernels are proven against and the path
    /// [`Self::is_valid`] takes below [`LANES`] obstacles.
    ///
    /// Broad-phase: boxes and spheres are decided by a single exact distance
    /// evaluation over an inline, volume-descending entry array (their
    /// containment test is exactly `distance == 0`); only convex polytopes
    /// pay for the narrow phase. The result is identical to testing every
    /// obstacle with `contains` + `distance`.
    pub fn is_valid_scalar(&self, p: &Point<D>, clearance: f64) -> bool {
        self.scalar_at(p, clearance, clearance * clearance * SQ_ULP)
    }

    /// The body of [`Self::is_valid_scalar`] with `c2` precomputed.
    #[inline]
    fn scalar_at(&self, p: &Point<D>, clearance: f64, c2: f64) -> bool {
        if !self.bounds.contains(p) {
            return false;
        }
        // Sqrt-free fast reject for boxes: if the squared distance strictly
        // exceeds clearance² (inflated by one ulp so float rounding of the
        // product cannot flip the comparison), the real distance strictly
        // exceeds the clearance, and the correctly-rounded sqrt the exact
        // predicate would compute is >= clearance — same verdict, no sqrt.
        for e in &self.broad {
            let invalid = match &e.phase {
                BroadPhase::Box(bb) => {
                    let sq = bb.distance_sq_to_point(p);
                    if sq > c2 {
                        false
                    } else {
                        let d = sq.sqrt();
                        d == 0.0 || d < clearance
                    }
                }
                BroadPhase::Sphere { center, radius } => {
                    let d = (p.dist(center) - radius).max(0.0);
                    d == 0.0 || d < clearance
                }
                BroadPhase::Narrow => {
                    let o = &self.obstacles[e.idx as usize];
                    o.contains(p) || o.distance(p) < clearance
                }
            };
            if invalid {
                return false;
            }
        }
        true
    }

    /// Minimum distance from `p` to any obstacle surface (infinity when there
    /// are no obstacles). Zero inside an obstacle.
    ///
    /// Box and sphere distances come straight from the inline broad-phase
    /// entries (they are exact), and the fold exits at 0.0 as soon as a
    /// containing obstacle is found — the minimum of non-negative distances
    /// cannot improve on zero.
    pub fn clearance(&self, p: &Point<D>) -> f64 {
        let mut best = f64::INFINITY;
        for e in &self.broad {
            let d = match &e.phase {
                BroadPhase::Box(bb) => bb.distance_to_point(p),
                BroadPhase::Sphere { center, radius } => (p.dist(center) - radius).max(0.0),
                BroadPhase::Narrow => self.obstacles[e.idx as usize].distance(p),
            };
            if d < best {
                best = d;
                if best == 0.0 {
                    return 0.0;
                }
            }
        }
        best
    }

    /// Distance along `ray` to the first obstacle hit, clipped at `max_t`.
    ///
    /// This is the primitive behind the paper's RRT "k random rays" work
    /// estimate (§III-B). With a grid, boxes and spheres are met cell by
    /// cell in ray order and the walk stops at the first cell whose exit
    /// lies beyond the best hit; the result is bit-identical to the fold
    /// over every obstacle. Rays outside the walk's preconditions (origin
    /// outside the bounds, non-finite direction, `max_t` not positive) and
    /// zero results — where `f64::min` of `0.0` and `-0.0` depends on the
    /// order — take that fold.
    pub fn ray_cast(&self, ray: &Ray<D>, max_t: f64) -> f64 {
        let fold = || {
            self.obstacles
                .iter()
                .filter_map(|o| o.ray_hit(ray))
                .fold(max_t, f64::min)
        };
        let Some(grid) = self.grid() else {
            return fold();
        };
        if !(max_t > 0.0 && self.bounds.contains(&ray.origin) && ray.dir.is_finite()) {
            return fold();
        }
        let t = self
            .batch()
            .narrow_indices()
            .iter()
            .filter_map(|&idx| self.obstacles[idx as usize].ray_hit(ray))
            .fold(grid.ray_cast(&self.obstacles, ray, max_t), f64::min);
        if t == 0.0 {
            fold()
        } else {
            t
        }
    }

    /// Exact obstacle volume inside `region` (requires disjoint obstacles;
    /// falls back to a stratified estimate otherwise).
    pub fn obstacle_volume_in(&self, region: &Aabb<D>) -> f64 {
        if self.disjoint_obstacles {
            self.obstacles.iter().map(|o| o.volume_in(region)).sum()
        } else {
            self.obstacle_volume_in_estimate(region, 12)
        }
    }

    /// Stratified midpoint-grid estimate of obstacle volume inside `region`
    /// (`res` points per axis); handles overlapping obstacles correctly.
    pub fn obstacle_volume_in_estimate(&self, region: &Aabb<D>, res: usize) -> f64 {
        if self.obstacles.is_empty() {
            return 0.0;
        }
        let (mut inside, mut total) = (0usize, 0usize);
        for_each_midpoint(region, res, |p| {
            total += 1;
            if self.obstacles.iter().any(|o| o.contains(&p)) {
                inside += 1;
            }
        });
        region.volume() * inside as f64 / total as f64
    }

    /// Free-space volume inside `region` (region ∩ bounds minus obstacles).
    pub fn free_volume_in(&self, region: &Aabb<D>) -> f64 {
        let clipped = match region.intersection(&self.bounds) {
            Some(c) => c,
            None => return 0.0,
        };
        (clipped.volume() - self.obstacle_volume_in(&clipped)).max(0.0)
    }

    /// Fraction of the whole workspace volume that is blocked by obstacles.
    pub fn blocked_fraction(&self) -> f64 {
        let v = self.bounds.volume();
        if v <= 0.0 {
            return 0.0;
        }
        (self.obstacle_volume_in(&self.bounds) / v).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with_cube() -> Environment<2> {
        Environment::new(
            "test",
            Aabb::unit(),
            vec![Obstacle::Box(Aabb::new(
                Point::new([0.4, 0.4]),
                Point::new([0.6, 0.6]),
            ))],
            true,
        )
    }

    #[test]
    fn validity_respects_bounds_and_obstacles() {
        let env = env_with_cube();
        assert!(env.is_valid(&Point::new([0.1, 0.1]), 0.0));
        assert!(!env.is_valid(&Point::new([0.5, 0.5]), 0.0)); // inside obstacle
        assert!(!env.is_valid(&Point::new([1.5, 0.5]), 0.0)); // out of bounds
                                                              // clearance shrinks free space
        assert!(env.is_valid(&Point::new([0.3, 0.3]), 0.05));
        assert!(!env.is_valid(&Point::new([0.38, 0.5]), 0.05));
    }

    #[test]
    fn clearance_query() {
        let env = env_with_cube();
        assert!((env.clearance(&Point::new([0.2, 0.5])) - 0.2).abs() < 1e-12);
        let free: Environment<2> = Environment::free_space("f", Aabb::unit());
        assert_eq!(free.clearance(&Point::splat(0.5)), f64::INFINITY);
    }

    #[test]
    fn free_volume_exact() {
        let env = env_with_cube();
        // whole space: 1 - 0.04
        assert!((env.free_volume_in(&Aabb::unit()) - 0.96).abs() < 1e-12);
        // left half contains half the obstacle
        let left = Aabb::new(Point::zero(), Point::new([0.5, 1.0]));
        assert!((env.free_volume_in(&left) - (0.5 - 0.02)).abs() < 1e-12);
        // region outside bounds contributes nothing
        let outside = Aabb::new(Point::splat(2.0), Point::splat(3.0));
        assert_eq!(env.free_volume_in(&outside), 0.0);
    }

    #[test]
    fn blocked_fraction_matches() {
        let env = env_with_cube();
        assert!((env.blocked_fraction() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn overlapping_obstacles_use_estimate() {
        // two identical overlapping boxes must not double count
        let bb = Aabb::new(Point::new([0.0, 0.0]), Point::new([0.5, 1.0]));
        let env: Environment<2> = Environment::new(
            "ovl",
            Aabb::unit(),
            vec![Obstacle::Box(bb), Obstacle::Box(bb)],
            false,
        );
        let blocked = env.obstacle_volume_in(&Aabb::unit());
        assert!((blocked - 0.5).abs() < 0.05, "blocked {blocked}");
    }

    #[test]
    fn ray_cast_first_hit() {
        let env = env_with_cube();
        let r = Ray::new(Point::new([0.0, 0.5]), Point::new([1.0, 0.0]));
        assert!((env.ray_cast(&r, 10.0) - 0.4).abs() < 1e-12);
        let miss = Ray::new(Point::new([0.0, 0.1]), Point::new([1.0, 0.0]));
        assert_eq!(env.ray_cast(&miss, 10.0), 10.0);
    }
}
