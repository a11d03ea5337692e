//! Per-crate integration suites this repo's tier-1 gate must see.
//!
//! `cargo test` at the workspace root runs only the umbrella package, so
//! a suite under `crates/*/tests/` can be red while tier-1 is green. The
//! ones that guard the layers the planner pipelines stand on — the dist
//! wire protocol and framing, the batch collision kernels and the grid
//! ray walk, and the greedy partitioner, CSR adjacency, kd-tree kNN, query
//! overlay, region-connection and RRT-growth differentials against their
//! verbatim references — and the serve registry's
//! build-once catalog are compiled into this target as modules, unchanged
//! (they still run in their own crates under `cargo test --workspace`).

#[path = "../crates/core/tests/greedy_lpt_differential.rs"]
mod core_greedy_lpt_differential;
#[path = "../crates/geom/tests/batch_prop.rs"]
mod geom_batch_prop;
#[path = "../crates/geom/tests/ray_cast_differential.rs"]
mod geom_ray_cast_differential;
#[path = "../crates/graph/tests/csr_oracle.rs"]
mod graph_csr_oracle;
#[path = "../crates/graph/tests/knn_heap_oracle.rs"]
mod graph_knn_heap_oracle;
#[path = "../crates/plan/tests/connect_differential.rs"]
mod plan_connect_differential;
#[path = "../crates/plan/tests/grow_rrt_differential.rs"]
mod plan_grow_rrt_differential;
#[path = "../crates/plan/tests/query_overlay_oracle.rs"]
mod plan_query_overlay_oracle;
#[path = "../crates/runtime/tests/dist_framing_props.rs"]
mod runtime_dist_framing_props;
#[path = "../crates/runtime/tests/dist_protocol.rs"]
mod runtime_dist_protocol;
// Counts environment builds process-wide: must stay the only module here
// that touches `smp_serve::registry`.
#[path = "../crates/serve/tests/registry_catalog.rs"]
mod serve_registry_catalog;
