// Parameterized task-graph generation for the BAND-DENSE-TLR Cholesky.
//
// Mirrors the PTG/JDF description PaRSEC executes: the right-looking tile
// Cholesky (POTRF → TRSMs → SYRK/GEMM updates per panel) unrolled over data
// keys, with
//   * kernel variants chosen from the per-tile formats (Section VI),
//   * critical-path-aware priorities (panel-ordered, band-boosted),
//   * owners from a pluggable data distribution (Section VII-C), which
//     classifies every dataflow edge LOCAL or REMOTE (Section VII-A),
//   * optional recursive formulations of all region-(1) kernels
//     (Section VII-D), modelled as split → sub-kernels → merge sub-DAGs so
//     the simulator sees the concurrency inside band tiles.
//
// The same generator serves both execution modes: with a TlrMatrix it
// attaches real hcore bodies (shared-memory runs), one task per tile
// kernel — the dense band kernels split themselves into nested children
// at run time (runtime/nested.hpp); with only a RankMap it attaches
// modelled durations and message sizes (virtual-cluster runs).
#pragma once

#include <set>
#include <vector>

#include "core/cost_model.hpp"
#include "core/rank_map.hpp"
#include "runtime/distribution.hpp"
#include "runtime/taskgraph.hpp"
#include "tlr/tlr_matrix.hpp"

namespace ptlr::core {

/// Knobs for graph generation.
struct GraphOptions {
  compress::Accuracy acc{1e-8, 1 << 30};  ///< recompression accuracy
  /// Recursive formulation of all region-(1) kernels (POTRF, TRSM, SYRK,
  /// GEMM) — the PaRSEC-HiCMA-New behaviour. Modelled graphs only.
  bool recursive_all = false;
  /// Recursive POTRF only — the PaRSEC-HiCMA-Prev behaviour. Modelled
  /// graphs only.
  bool recursive_potrf = false;
  /// Sub-block size for recursion; 0 picks max(tile_size/4, 16).
  int recursive_block = 0;
  /// Tile owners; nullptr places everything on process 0.
  const rt::Distribution* dist = nullptr;
  /// Durations/bytes for simulation; nullptr leaves them zero.
  const CostModel* cost = nullptr;
};

/// Statistics the generator gathers while unrolling the graph.
struct GraphStats {
  double model_flops = 0.0;        ///< Table I flops of all kernels
  double model_flops_dense = 0.0;  ///< flops of region-(1) kernels only
  long long tasks = 0;
  long long tasks_band = 0;        ///< tasks writing on-band tiles
};

/// Build the graph with real hcore bodies operating on `mat` (shared-memory
/// execution mode), one task per tile kernel, each carrying recovery hooks.
/// Formats/ranks are taken from the matrix itself. `opt.recursive_*` must
/// be false.
rt::TaskGraph build_cholesky_graph(tlr::TlrMatrix& mat,
                                   const GraphOptions& opt,
                                   GraphStats* stats = nullptr);

/// For each task of a graph built with GraphOptions::dist: the ranks,
/// other than the task's own, that run a consumer of its output tile —
/// where a distributed run broadcasts that tile. Every cross-rank edge of the
/// graph is such a read: a tile is written only by its owner, and read
/// only after its last write. placement_comm_cost (core/placement.hpp)
/// prices the same sets from the distribution alone.
std::vector<std::set<int>> broadcast_dests(const rt::TaskGraph& g);

/// Build the body-less modelled graph from rank information only
/// (virtual-cluster simulation mode). `opt.cost` must be set.
rt::TaskGraph build_cholesky_graph(const RankMap& ranks,
                                   const GraphOptions& opt,
                                   GraphStats* stats = nullptr);

/// Variant of the simulation-mode graph that skips every TLR GEMM task —
/// the "No_TLR_GEMM" critical-path experiment of Fig. 10.
rt::TaskGraph build_cholesky_graph_no_tlr_gemm(const RankMap& ranks,
                                               const GraphOptions& opt,
                                               GraphStats* stats = nullptr);

}  // namespace ptlr::core
