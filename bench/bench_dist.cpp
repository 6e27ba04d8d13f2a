// Machine-readable distributed communication-path benchmark
// (BENCH_dist.json).
//
// Runs the in-process distributed Cholesky (N rank threads over the
// Communicator) on the same st-3D-exp problem under two communication
// configurations at 2/4/8 ranks:
//
//   * unicast — flat one-send-per-destination broadcasts (the pre-tree PTG
//               pattern);
//   * tree    — binomial-tree broadcasts (the default path).
//
// For every run it reports end-to-end seconds (min over reps) and the
// aggregated RankCommStats: broadcast-origin egress bytes (the O(P) vs
// O(1) quantity the trees exist to cut), tree forwards, received tiles
// that arrived while the rank still had work (prefetch hits) or while it
// waited (misses), and the ranks' seconds waiting for tiles. Every run's factor is compared bitwise
// against the first run's — the modes must not change a single bit.
//
// Output: BENCH_dist.json (override with PTLR_BENCH_OUT or argv[1]).
// PTLR_BENCH_SCALE=small shrinks the problem for CI smoke runs.
// tools/check_dist_bench.py gates on the 4-rank unicast/tree pair.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/dist_cholesky.hpp"
#include "runtime/distribution.hpp"
#include "tlr/io.hpp"

using namespace ptlr;

namespace {

struct Mode {
  const char* name;
  bool tree;
};

struct Row {
  int nranks;
  const char* mode;
  bool tree;
  double seconds = 0.0;
  long long messages = 0;
  long long bytes = 0;
  long long root_egress_bytes = 0;
  long long max_rank_root_egress_bytes = 0;
  long long forwards = 0;
  long long forward_bytes = 0;
  long long prefetch_hits = 0;
  long long prefetch_misses = 0;
  double blocked_recv_seconds = 0.0;
  bool bitwise_identical = true;
};

bool same_factor(const tlr::TlrMatrix& a, const tlr::TlrMatrix& b) {
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      if (tlr::tile_to_bytes(a.at(i, j)) != tlr::tile_to_bytes(b.at(i, j)))
        return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_dist.json";
  if (const char* env = std::getenv("PTLR_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  const int n = scale == "small" ? 256 : 512;
  const int b = 32;
  const int band = 2;
  const double tol = 1e-6;
  const int reps = scale == "small" ? 2 : 3;
  const compress::Accuracy acc{tol, 1 << 30};

  bench::header("bench_dist", "distributed communication paths");
  std::printf("n=%d b=%d band=%d tol=%.0e reps=%d\n", n, b, band, tol, reps);

  const Mode modes[] = {{"unicast", false}, {"tree", true}};
  const int rank_counts[] = {2, 4, 8};
  const auto prob = bench::st3d_exp(n);

  std::vector<Row> rows;
  tlr::TlrMatrix reference = tlr::TlrMatrix::from_problem(prob, b, acc, 1);
  bool have_reference = false;

  std::printf("%7s %-9s %10s %12s %12s %9s %9s %9s %11s\n", "nranks", "mode",
              "seconds", "egress B", "max/rank B", "forwards", "pf hit",
              "pf miss", "waiting s");
  for (const int nranks : rank_counts) {
    const auto [p, q] = rt::square_grid(nranks);
    const rt::BandDistribution dist(p, q, band);
    for (const Mode& m : modes) {
      core::DistCommOptions opts;
      opts.tree = m.tree;

      Row row;
      row.nranks = nranks;
      row.mode = m.name;
      row.tree = m.tree;
      row.seconds = 1e300;
      for (int r = 0; r < reps; ++r) {
        tlr::TlrMatrix a = tlr::TlrMatrix::from_problem(prob, b, acc, 1);
        const auto res = core::distributed_factorize(a, dist, acc, opts);
        if (res.seconds < row.seconds) {
          row.seconds = res.seconds;
          row.messages = res.comm.messages;
          row.bytes = res.comm.bytes;
          row.root_egress_bytes = 0;
          row.max_rank_root_egress_bytes = 0;
          row.forwards = row.forward_bytes = 0;
          row.prefetch_hits = row.prefetch_misses = 0;
          row.blocked_recv_seconds = 0.0;
          for (const core::RankCommStats& cs : res.rank_comm) {
            row.root_egress_bytes += cs.root_egress_bytes;
            row.max_rank_root_egress_bytes = std::max(
                row.max_rank_root_egress_bytes, cs.root_egress_bytes);
            row.forwards += cs.forwards;
            row.forward_bytes += cs.forward_bytes;
            row.prefetch_hits += cs.prefetch_hits;
            row.prefetch_misses += cs.prefetch_misses;
            row.blocked_recv_seconds += cs.blocked_recv_seconds;
          }
        }
        if (!have_reference) {
          reference = a;
          have_reference = true;
        } else if (!same_factor(a, reference)) {
          row.bitwise_identical = false;
        }
      }
      rows.push_back(row);
      std::printf("%7d %-9s %10.4f %12lld %12lld %9lld %9lld %9lld %11.5f%s\n",
                  row.nranks, row.mode, row.seconds, row.root_egress_bytes,
                  row.max_rank_root_egress_bytes, row.forwards,
                  row.prefetch_hits, row.prefetch_misses,
                  row.blocked_recv_seconds,
                  row.bitwise_identical ? "" : "  BITWISE MISMATCH");
      std::fflush(stdout);
    }
  }

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.bitwise_identical;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"dist\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"n\": %d,\n  \"b\": %d,\n  \"band\": %d,\n", n, b, band);
  std::fprintf(f, "  \"tol\": %.0e,\n  \"reps\": %d,\n", tol, reps);
  std::fprintf(f, "  \"bitwise_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"nranks\": %d, \"mode\": \"%s\", \"tree\": %s, "
        "\"seconds\": %.5f, \"messages\": %lld, "
        "\"bytes\": %lld, \"root_egress_bytes\": %lld, "
        "\"max_rank_root_egress_bytes\": %lld, \"forwards\": %lld, "
        "\"forward_bytes\": %lld, \"prefetch_hits\": %lld, "
        "\"prefetch_misses\": %lld, \"blocked_recv_seconds\": %.6f}%s\n",
        r.nranks, r.mode, r.tree ? "true" : "false", r.seconds,
        r.messages, r.bytes, r.root_egress_bytes,
        r.max_rank_root_egress_bytes, r.forwards, r.forward_bytes,
        r.prefetch_hits, r.prefetch_misses, r.blocked_recv_seconds,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return all_identical ? 0 : 2;
}
