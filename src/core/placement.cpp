#include "core/placement.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "core/bcast_tree.hpp"
#include "runtime/mailbox.hpp"

namespace ptlr::core {

namespace {

using rt::dist::make_tag;

constexpr std::uint32_t kProbeSpace = 3;  // tag space reserved for probes
constexpr int kSmallIters = 8;
constexpr int kLargeIters = 3;
constexpr std::size_t kSmallBytes = 64;
constexpr std::size_t kLargeBytes = 256u << 10;

double parse_positive(const char* name, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  PTLR_CHECK(end != nullptr && *end == '\0' && x > 0.0,
             std::string(name) + " must be a positive number, got: " + v);
  return x;
}

/// Serialized payload size of a tile at (i, j): dense inside the band,
/// two rank-`r` factors outside (matching tlr/io.cpp's framing overhead).
double tile_bytes(int i, int j, const PlacementProblem& prob) {
  const double b = static_cast<double>(prob.block);
  if (i - j < prob.band) return 24.0 + 8.0 * b * b;
  return 40.0 + 16.0 * b * prob.avg_offband_rank;
}

/// Cost of one broadcast of `s` bytes from `origin` to `dests`.
double broadcast_cost(const PlacementProblem& prob, const MeshParams& mesh,
                      int origin, const std::set<int>& dests, double s) {
  std::size_t n = dests.size();
  if (dests.count(origin) != 0) --n;
  if (n == 0) return 0.0;
  const double hop = mesh.alpha_seconds + s * mesh.beta_seconds_per_byte;
  if (prob.tree) {
    // Tree edges pipeline across ranks: the completion time is the depth
    // of the binomial tree, not the number of transfers.
    return static_cast<double>(bcast::depth(n)) * hop;
  }
  // Flat unicast serializes at the origin's egress.
  return static_cast<double>(n) * hop;
}

}  // namespace

const char* placement_name(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kOneD: return "1d";
    case PlacementKind::kTwoD: return "2d";
    case PlacementKind::kHybridBand: return "band";
  }
  return "?";
}

std::optional<MeshParams> MeshParams::from_env() {
  const char* a = std::getenv("PTLR_MESH_ALPHA");
  const char* b = std::getenv("PTLR_MESH_BETA");
  if (a == nullptr && b == nullptr) return std::nullopt;
  PTLR_CHECK(a != nullptr && b != nullptr,
             "PTLR_MESH_ALPHA and PTLR_MESH_BETA must be set together");
  MeshParams p;
  p.alpha_seconds = parse_positive("PTLR_MESH_ALPHA", a);
  p.beta_seconds_per_byte = parse_positive("PTLR_MESH_BETA", b);
  return p;
}

double placement_comm_cost(const PlacementProblem& prob,
                           const MeshParams& mesh, PlacementKind kind) {
  const auto dist = make_placement(kind, prob.nranks, prob.band);
  const int nt = prob.nt;
  double cost = 0.0;
  for (int k = 0; k < nt; ++k)
    for (int i = k; i < nt; ++i)
      cost += broadcast_cost(prob, mesh, dist->owner(i, k),
                             panel_tile_readers(*dist, nt, i, k),
                             tile_bytes(i, k, prob));
  return cost;
}

std::set<int> panel_tile_readers(const rt::Distribution& dist, int nt, int i,
                                 int k) {
  std::set<int> readers;
  if (i == k) {
    // L(k,k) goes to every rank owning a panel-k tile.
    for (int m = k + 1; m < nt; ++m) readers.insert(dist.owner(m, k));
  } else {
    // A(i,k) goes to every rank whose updates read it: row i left of the
    // diagonal, the diagonal tile, and column i below it.
    for (int j = k + 1; j < i; ++j) readers.insert(dist.owner(i, j));
    readers.insert(dist.owner(i, i));
    for (int m = i + 1; m < nt; ++m) readers.insert(dist.owner(m, i));
  }
  return readers;
}

PlacementChoice choose_placement(const PlacementProblem& prob,
                                 const MeshParams& mesh) {
  PlacementChoice choice;
  choice.params = mesh;
  const PlacementKind kinds[] = {PlacementKind::kOneD, PlacementKind::kTwoD,
                                 PlacementKind::kHybridBand};
  double best = 0.0;
  bool first = true;
  for (const PlacementKind kind : kinds) {
    const double c = placement_comm_cost(prob, mesh, kind);
    choice.cost_seconds[static_cast<std::size_t>(kind)] = c;
    // Strict < keeps ties on the later (more specialized) candidate order
    // stable: 1d < 2d < band in enum order, band wins ties.
    if (first || c <= best) {
      best = c;
      choice.kind = kind;
      first = false;
    }
  }
  return choice;
}

std::unique_ptr<rt::Distribution> make_placement(PlacementKind kind,
                                                 int nranks, int band) {
  PTLR_CHECK(nranks >= 1, "make_placement: nranks must be >= 1");
  const auto [p, q] = rt::square_grid(nranks);
  switch (kind) {
    case PlacementKind::kOneD:
      return std::make_unique<rt::OneDBlockCyclic>(nranks);
    case PlacementKind::kTwoD:
      return std::make_unique<rt::TwoDBlockCyclic>(p, q);
    case PlacementKind::kHybridBand:
      return std::make_unique<rt::BandDistribution>(p, q, band);
  }
  throw Error("make_placement: unknown placement kind");
}

namespace {

void put_f64(std::vector<char>& v, double x) {
  char buf[sizeof(double)];
  std::memcpy(buf, &x, sizeof(double));
  v.insert(v.end(), buf, buf + sizeof(double));
}

double get_f64(const char* p) {
  double x = 0.0;
  std::memcpy(&x, p, sizeof(double));
  return x;
}

}  // namespace

PlacementChoice negotiate_placement(rt::dist::Transport& t,
                                    const PlacementProblem& prob) {
  // Configured parameters short-circuit the wire protocol entirely: every
  // rank scores the same model with the same inputs and agrees silently.
  if (const auto env = MeshParams::from_env())
    return choose_placement(prob, *env);
  if (t.nranks() < 2) return choose_placement(prob, MeshParams{});

  using Clock = std::chrono::steady_clock;
  const int rank = t.rank();
  const std::uint64_t decision_tag = make_tag(kProbeSpace, 0, 0, 2);
  const auto ping_tag = [](int seq) {
    return make_tag(kProbeSpace, static_cast<std::uint32_t>(seq), 0, 0);
  };
  const auto pong_tag = [](int seq) {
    return make_tag(kProbeSpace, static_cast<std::uint32_t>(seq), 0, 1);
  };

  if (rank == 0) {
    // Measure against rank 1. Every probe iteration uses a fresh tag so
    // the deterministic per-(tag, sender) message ids never collide and
    // seeded fault decisions on factorization tags are untouched.
    double rtt_small = 0.0, rtt_large = 0.0;
    for (int seq = 0; seq < kSmallIters + kLargeIters; ++seq) {
      const bool large = seq >= kSmallIters;
      const Bytes ping(
          std::vector<char>(large ? kLargeBytes : kSmallBytes, 'p'));
      const auto start = Clock::now();
      t.send(1, ping_tag(seq), ping);
      (void)t.recv(pong_tag(seq), 1);
      const std::chrono::duration<double> rtt = Clock::now() - start;
      if (large) {
        if (rtt_large == 0.0 || rtt.count() < rtt_large)
          rtt_large = rtt.count();
      } else {
        // Minimum over iterations — scheduling noise only ever adds.
        if (rtt_small == 0.0 || rtt.count() < rtt_small)
          rtt_small = rtt.count();
      }
    }
    MeshParams mesh;
    mesh.alpha_seconds = rtt_small / 2.0;
    // The pong is small both times: the round-trip difference is the one
    // extra large transfer.
    mesh.beta_seconds_per_byte =
        std::max(rtt_large - rtt_small, 1e-12) /
        static_cast<double>(kLargeBytes);
    const PlacementChoice choice = choose_placement(prob, mesh);

    std::vector<char> decision;
    decision.push_back(static_cast<char>(choice.kind));
    put_f64(decision, mesh.alpha_seconds);
    put_f64(decision, mesh.beta_seconds_per_byte);
    for (const double c : choice.cost_seconds) put_f64(decision, c);
    const Bytes payload(std::move(decision));
    for (int r = 1; r < t.nranks(); ++r) t.send(r, decision_tag, payload);
    return choice;
  }

  if (rank == 1) {
    for (int seq = 0; seq < kSmallIters + kLargeIters; ++seq) {
      (void)t.recv(ping_tag(seq), 0);
      t.send(0, pong_tag(seq), Bytes(std::vector<char>(kSmallBytes, 'q')));
    }
  }
  const Bytes decision = t.recv(decision_tag, 0);
  PTLR_CHECK(decision.size() == 1 + 5 * sizeof(double),
             "placement: malformed decision payload");
  PlacementChoice choice;
  const int kind = static_cast<int>(decision[0]);
  PTLR_CHECK(kind >= 0 && kind <= 2, "placement: bad decision kind");
  choice.kind = static_cast<PlacementKind>(kind);
  choice.params.alpha_seconds = get_f64(decision.data() + 1);
  choice.params.beta_seconds_per_byte = get_f64(decision.data() + 9);
  for (std::size_t i = 0; i < 3; ++i)
    choice.cost_seconds[i] = get_f64(decision.data() + 17 + 8 * i);
  return choice;
}

}  // namespace ptlr::core
