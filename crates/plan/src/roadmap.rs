//! The roadmap type: a graph whose vertices are configurations and whose
//! edges are feasible local plans weighted by C-space length.

use smp_cspace::Cfg;
use smp_graph::Graph;

/// A roadmap (or tree): vertices are configurations, edge payloads are
/// C-space lengths.
pub type Roadmap<const D: usize> = Graph<Cfg<D>, f64>;

/// Collect the configurations of a roadmap into a vector (index-aligned with
/// vertex ids).
pub fn cfgs<const D: usize>(map: &Roadmap<D>) -> Vec<Cfg<D>> {
    map.vertices().copied().collect()
}

/// Verify structural invariants every well-formed roadmap obeys; used by
/// tests. Returns an error description on the first violation.
pub fn check_invariants<const D: usize>(map: &Roadmap<D>) -> Result<(), String> {
    for (a, b, w) in map.edges() {
        let d = map.vertex(a).dist(map.vertex(b));
        if (d - *w).abs() > 1e-6 {
            return Err(format!("edge ({a},{b}) weight {w} != cfg distance {d}"));
        }
        if a == b {
            return Err(format!("self-loop at {a}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smp_geom::Point;

    #[test]
    fn invariants_hold_for_consistent_map() {
        let mut m: Roadmap<2> = Roadmap::new();
        let a = m.add_vertex(Point::new([0.0, 0.0]));
        let b = m.add_vertex(Point::new([1.0, 0.0]));
        m.add_edge(a, b, 1.0);
        assert!(check_invariants(&m).is_ok());
        assert_eq!(cfgs(&m).len(), 2);
    }

    #[test]
    fn invariants_catch_bad_weight() {
        let mut m: Roadmap<2> = Roadmap::new();
        let a = m.add_vertex(Point::new([0.0, 0.0]));
        let b = m.add_vertex(Point::new([1.0, 0.0]));
        m.add_edge(a, b, 5.0);
        assert!(check_invariants(&m).is_err());
    }
}
