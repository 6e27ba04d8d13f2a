// The (α, β) placement heuristic, promoted from the simulator to core.
//
// Which data distribution minimizes communication for a BAND-DENSE-TLR
// Cholesky depends on the mesh: a latency-dominated interconnect (large α)
// favors fewer, larger messages and the band distribution's row locality;
// a bandwidth-dominated one (large β) favors the 2D block-cyclic's lower
// per-rank volume. The simulator has always priced REMOTE edges with
// t = α + β·bytes; this header makes that model a first-class core
// citizen so the discrete-event simulator and the real socket backend
// score candidate placements with ONE implementation:
//
//   * choose_placement — walk the factorization's broadcast structure
//     under each candidate distribution and integrate α·(tree depth or
//     fan-out) + β·bytes; pick the argmin;
//   * negotiate_placement — measure α and β on the live mesh (rank 0
//     ping-pongs rank 1 with small and large payloads), decide on rank 0,
//     broadcast the decision — so `ptlr-dist --dist auto` picks band vs
//     2D vs 1D from the wire it actually runs on;
//   * the simulator's CommModel {latency, 1/bandwidth} maps directly onto
//     MeshParams, which is how tools/ptlr_simulate scores the same three
//     candidates without a wire.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "runtime/distribution.hpp"
#include "runtime/transport.hpp"

namespace ptlr::core {

/// The three candidate distributions of Section VII-C.
enum class PlacementKind : int { kOneD = 0, kTwoD = 1, kHybridBand = 2 };

[[nodiscard]] const char* placement_name(PlacementKind kind);

/// Measured (or configured) mesh parameters of the α + β·bytes model.
struct MeshParams {
  double alpha_seconds = 2e-6;        ///< per-message latency
  double beta_seconds_per_byte = 1.25e-10;  ///< inverse bandwidth

  /// Both PTLR_MESH_ALPHA (seconds) and PTLR_MESH_BETA (seconds/byte) set
  /// → those values, skipping any probing. Neither set → nullopt. Only
  /// one set, or a malformed value → throws.
  static std::optional<MeshParams> from_env();
};

/// What the cost walk needs to know about the factorization.
struct PlacementProblem {
  int nt = 0;      ///< tiles per dimension
  int block = 0;   ///< tile size b
  int band = 1;    ///< band width in tiles (dense region |i-j| < band)
  double avg_offband_rank = 8.0;  ///< mean numerical rank of TLR tiles
  int nranks = 1;
  bool tree = true;  ///< broadcasts tree-forwarded (vs flat unicast)
};

struct PlacementChoice {
  PlacementKind kind = PlacementKind::kHybridBand;
  MeshParams params;  ///< the α/β the decision was scored with
  /// Model cost of each candidate, indexed by PlacementKind. Zero-filled
  /// on ranks that only received the decision.
  std::array<double, 3> cost_seconds{};
};

/// Modelled communication time of the whole factorization under one
/// candidate: for every step-k diagonal and panel broadcast, α·(binomial
/// depth when tree, fan-out when flat) + β·payload·|destinations|.
[[nodiscard]] double placement_comm_cost(const PlacementProblem& prob,
                                         const MeshParams& mesh,
                                         PlacementKind kind);

/// The ranks that read tile (i, k) once panel k has produced it (i == k:
/// the diagonal tile; i > k: a panel tile), possibly including its own
/// owner — the broadcast sets placement_comm_cost prices. The distributed
/// factorization derives the same sets from the task graph
/// (broadcast_dests in core/cholesky_graph.hpp); tests pin the two equal.
[[nodiscard]] std::set<int> panel_tile_readers(const rt::Distribution& dist,
                                               int nt, int i, int k);

/// Score all three candidates, pick the cheapest.
[[nodiscard]] PlacementChoice choose_placement(const PlacementProblem& prob,
                                               const MeshParams& mesh);

/// Materialize the chosen kind (band uses the square grid + `band`).
[[nodiscard]] std::unique_ptr<rt::Distribution> make_placement(
    PlacementKind kind, int nranks, int band);

/// Collective placement decision over a live transport. Rank 0 measures α
/// (minimum small-payload round trip / 2) and β (large-vs-small round-trip
/// difference / payload) against rank 1, scores the candidates, and sends
/// every rank the decision; PTLR_MESH_ALPHA/PTLR_MESH_BETA skip the
/// measurement. Every rank must call this at the same point (before the
/// factorization); all ranks return the same choice. Single-rank meshes
/// decide locally.
[[nodiscard]] PlacementChoice negotiate_placement(
    rt::dist::Transport& t, const PlacementProblem& prob);

}  // namespace ptlr::core
