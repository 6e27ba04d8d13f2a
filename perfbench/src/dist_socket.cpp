// dist_socket: kRanks rank processes factor over the UDS socket mesh.
//
// The load generator builds the replica once per set-up (band-1
// compression, Algorithm 1 tuning, regeneration of the tuned band — what
// core::factorize does before it factors), then forks the rank processes,
// which inherit it. Rank processes rendezvous on net::SocketTransport,
// negotiate the placement (--dist auto), and run
// core::distributed_factorize_rank once per repetition on a fresh mesh (a
// factorization ends with the mesh's drain barrier). Each repetition's
// records come back over pipes; the parent then checks every rank's owned
// tiles bitwise against the in-process core::distributed_factorize of the
// same placement, and solves with that oracle factor for rel_residual.
//
// The parent forks before it starts any thread, and stays idle in poll()
// while the ranks factor.
#include <malloc.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/band_tuner.hpp"
#include "core/dist_cholesky.hpp"
#include "core/placement.hpp"
#include "core/rank_map.hpp"
#include "core/solve.hpp"
#include "net/transport.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace ptlr;

/// One repetition of one rank, sent rank -> parent as raw bytes.
struct RankRecord {
  int ok = 0;
  char error[256] = {};
  int placement = -1;
  double mesh_up_s = 0.0;
  double probe_s = 0.0;
  double factor_s = 0.0;
  double cpu_s = 0.0;
  long long messages = 0, bytes = 0, root_egress_bytes = 0, forwards = 0;
  long long prefetch_hits = 0, prefetch_misses = 0;
  double blocked_recv_s = 0.0;
  long long frames_sent = 0, bytes_sent = 0, retransmits = 0;
  long long recovery_events = 0;
  long long recompressions = 0, rank_out_sum = 0, fallbacks = 0;
  std::uint64_t owned_hash = 0;
  double peak_rss_mb = 0.0;
};

/// Parent -> rank command after each repetition.
enum Command : char { kStop = 0, kRun = 1, kRunTraced = 2 };

// Generous: a repetition takes a few seconds; a rank that stays silent
// this long is hung, and the run must still end within its time limit.
constexpr int kRecordTimeoutMs = 60000;

bool write_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    const ssize_t w = ::write(fd, c, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    c += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Read exactly n bytes, waiting at most timeout_ms for each chunk.
bool read_all(int fd, void* p, std::size_t n, int timeout_ms) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    const ssize_t r = ::read(fd, c, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    c += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

std::string rep_dir(const std::string& base, int rep) {
  return base + "/r" + std::to_string(rep);
}

double mean_offband_rank(const tlr::TlrMatrix& a, int band) {
  double sum = 0.0;
  long long count = 0;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j + band <= i; ++j) {
      sum += a.at(i, j).rank();
      ++count;
    }
  return count > 0 ? sum / static_cast<double>(count) : 8.0;
}

std::unique_ptr<net::SocketTransport> connect_mesh(const std::string& dir,
                                                   int rank) {
  net::NetConfig cfg;
  cfg.kind = net::NetConfig::Kind::kUds;
  cfg.dir = dir;
  cfg.rank = rank;
  cfg.nranks = kRanks;
  return std::make_unique<net::SocketTransport>(
      cfg, rt::PerturbConfig{}, resil::FaultConfig{}, resil::WatchdogConfig{});
}

/// Body of one rank process; never returns.
[[noreturn]] void rank_main(int rank, const std::string& base,
                            const tlr::TlrMatrix& pristine, int band,
                            const compress::Accuracy& acc, int to_parent,
                            int from_parent) {
  int code = 0;
  try {
    const core::DistCommOptions comm;  // tree broadcasts, default lookahead
    RankRecord rec;
    WallTimer timer;
    auto transport = connect_mesh(rep_dir(base, 0), rank);
    rec.mesh_up_s = timer.seconds();
    timer.reset();
    core::PlacementProblem pp;
    pp.nt = pristine.nt();
    pp.block = pristine.tile_size();
    pp.band = band;
    pp.avg_offband_rank = mean_offband_rank(pristine, band);
    pp.nranks = kRanks;
    pp.tree = comm.tree;
    const core::PlacementChoice choice =
        core::negotiate_placement(*transport, pp);
    rec.probe_s = timer.seconds();
    const auto dist = core::make_placement(choice.kind, kRanks, band);
    const int placement = static_cast<int>(choice.kind);

    char cmd = kRun;  // the first repetition follows set-up untraced
    for (int k = 0;; ++k) {
      rec.placement = placement;
      try {
        if (!transport) {
          timer.reset();
          transport = connect_mesh(rep_dir(base, k), rank);
          rec.mesh_up_s = timer.seconds();
        }
        tlr::TlrMatrix a = pristine;
        if (cmd == kRunTraced) {
          obs::reset();
          obs::enable(true);
        }
        const double cpu0 = cpu_seconds();
        const core::DistCholeskyResult res = core::distributed_factorize_rank(
            a, *dist, acc, *transport, {}, comm);
        rec.cpu_s = cpu_seconds() - cpu0;
        obs::enable(false);
        rec.factor_s = res.seconds;
        const core::RankCommStats& cs = res.rank_comm.front();
        rec.messages = cs.messages;
        rec.bytes = cs.bytes;
        rec.root_egress_bytes = cs.root_egress_bytes;
        rec.forwards = cs.forwards;
        rec.prefetch_hits = cs.prefetch_hits;
        rec.prefetch_misses = cs.prefetch_misses;
        rec.blocked_recv_s = cs.blocked_recv_seconds;
        const net::PeerWireStats wire = transport->wire_stats();
        rec.frames_sent = wire.msgs_sent;
        rec.bytes_sent = wire.bytes_sent;
        rec.retransmits = wire.retransmits;
        rec.recovery_events = res.recovery.total();
        if (cmd == kRunTraced) {
          const obs::CompressionCounters cc = obs::Counters::compressions();
          rec.recompressions = cc.count;
          rec.rank_out_sum = cc.rank_out_sum;
          rec.fallbacks = cc.fallbacks;
        }
        rec.owned_hash = tiles_hash(
            a, [&](int i, int j) { return dist->owner(i, j) == rank; });
        rec.ok = 1;
      } catch (const std::exception& e) {
        std::snprintf(rec.error, sizeof rec.error, "rank %d: %s", rank,
                      e.what());
      }
      transport.reset();
      rec.peak_rss_mb = peak_rss_mb();
      if (!write_all(to_parent, &rec, sizeof rec)) break;
      if (!read_all(from_parent, &cmd, 1, -1) || cmd == kStop) break;
      rec = RankRecord{};
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
    code = 3;
  }
  std::fflush(nullptr);
  _exit(code);
}

struct Child {
  pid_t pid = -1;
  int records = -1;   // parent reads RankRecords
  int commands = -1;  // parent writes Commands
};

/// Fork the rank processes. Each inherits `pristine` copy-on-write.
std::vector<Child> spawn_ranks(const std::string& base,
                               const tlr::TlrMatrix& pristine, int band,
                               const compress::Accuracy& acc) {
  std::vector<Child> kids;
  for (int r = 0; r < kRanks; ++r) {
    int up[2], down[2];
    if (::pipe(up) != 0 || ::pipe(down) != 0)
      throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      for (const Child& k : kids) {
        ::close(k.records);
        ::close(k.commands);
      }
      ::close(up[0]);
      ::close(down[1]);
      rank_main(r, base, pristine, band, acc, up[1], down[0]);
    }
    ::close(up[1]);
    ::close(down[0]);
    kids.push_back({pid, up[0], down[1]});
  }
  return kids;
}

/// Close the pipes and reap every rank; returns the ranks that exited
/// with a nonzero code or a signal. `kill_first` ends hung ranks.
std::vector<std::string> reap(std::vector<Child>& kids, bool kill_first) {
  std::vector<std::string> bad;
  for (Child& k : kids) {
    if (kill_first) ::kill(k.pid, SIGKILL);
    ::close(k.records);
    ::close(k.commands);
  }
  for (std::size_t r = 0; r < kids.size(); ++r) {
    int status = 0;
    while (::waitpid(kids[r].pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!kill_first && !(WIFEXITED(status) && WEXITSTATUS(status) == 0))
      bad.push_back("rank " + std::to_string(r) + " exited abnormally");
  }
  kids.clear();
  return bad;
}

struct RepView {
  std::vector<RankRecord> ranks;
  bool traced = false;
  double wall() const {
    double w = 0.0;
    for (const auto& r : ranks) w = std::max(w, r.factor_s);
    return w;
  }
  /// `field` summed over the ranks.
  template <class T>
  double sum(T RankRecord::*field) const {
    double s = 0.0;
    for (const auto& r : ranks) s += static_cast<double>(r.*field);
    return s;
  }
};

}  // namespace

Outcome run_dist_socket(const Options& opt, Report& report) {
  const compress::Accuracy acc{kTolLoose, 1 << 30};

  // Set-up: the replica every rank starts from, built as core::factorize
  // builds its input: band-1 compression, Algorithm 1, band regeneration.
  std::vector<double> build_s, from_problem_s, tune_s, densify_s;
  std::optional<stars::CovarianceProblem> prob;
  std::optional<tlr::TlrMatrix> pristine;
  int band = 0, build_threads = 1;
  double useful = 0.0;
  for (int k = 0; k < kSetups; ++k) {
    pristine.reset();
    const WallTimer timer;
    prob.emplace(make_problem(opt.seed));
    WallTimer t;
    pristine.emplace(setup_compress(*prob, kTolLoose, build_threads));
    from_problem_s.push_back(t.seconds());
    const std::vector<bool> lowrank = lowrank_flags(*pristine);
    t.reset();
    band = core::tune_band_size(core::RankMap::from_matrix(*pristine))
               .band_size;
    tune_s.push_back(t.seconds());
    useful = useful_tile_frac(lowrank, pristine->nt(), band);
    t.reset();
    pristine->densify_band(band, &*prob);
    densify_s.push_back(t.seconds());
    build_s.push_back(timer.seconds());
  }
  const std::vector<std::vector<double>> zs = observations(*prob, opt.seed);

  const std::string base =
      opt.scratch + "/dist-" + std::to_string(::getpid());
  std::filesystem::create_directories(rep_dir(base, 0));
  ::signal(SIGPIPE, SIG_IGN);
  // Hand the set-up builds' freed heap back to the OS, so rank processes
  // do not inherit it as resident memory.
  ::malloc_trim(0);

  Outcome out;
  std::vector<RepView> reps;
  std::vector<Child> kids = spawn_ranks(base, *pristine, band, acc);
  const WallTimer clock;
  bool hung = false;
  for (int k = 0;; ++k) {
    RepView view;
    view.traced = opt.trace && k % 2 == 1;
    for (std::size_t r = 0; r < kids.size(); ++r) {
      RankRecord rec;
      if (!read_all(kids[r].records, &rec, sizeof rec, kRecordTimeoutMs)) {
        hung = true;
        break;
      }
      view.ranks.push_back(rec);
    }
    if (hung) {
      ++out.attempted;
      out.fail("repetition " + std::to_string(k) +
               ": a rank died or stopped answering");
      break;
    }
    reps.push_back(view);
    // Trace runs end on a traced repetition so both kinds are measured.
    const bool more =
        clock.seconds() < opt.seconds || (opt.trace && k % 2 == 0);
    Command cmd = kStop;
    if (more) {
      std::filesystem::create_directories(rep_dir(base, k + 1));
      cmd = opt.trace && k % 2 == 0 ? kRunTraced : kRun;
    }
    for (const Child& c : kids) write_all(c.commands, &cmd, 1);
    if (!more) break;
  }
  // A rank that exits abnormally after its last record fails the last
  // repetition; it is not an attempt of its own.
  const std::vector<std::string> bad_exits = reap(kids, hung);
  std::filesystem::remove_all(base);

  // Oracle: the in-process distributed factor of the same placement.
  const int placement =
      reps.empty() ? -1 : reps.front().ranks.front().placement;
  if (placement < 0) {
    if (out.attempted == 0) {
      ++out.attempted;
      out.fail("no repetition finished");
    }
    return out;
  }
  const auto dist = core::make_placement(
      static_cast<core::PlacementKind>(placement), kRanks, band);
  tlr::TlrMatrix oracle = *pristine;
  core::distributed_factorize(oracle, *dist, acc, core::DistCommOptions{});
  std::vector<std::uint64_t> expect;
  for (int r = 0; r < kRanks; ++r)
    expect.push_back(tiles_hash(
        oracle, [&](int i, int j) { return dist->owner(i, j) == r; }));
  // Every rank's tiles are checked bitwise against the oracle, so the
  // oracle's accuracy is that of every repetition that matches it.
  std::vector<double> x0 = core::solve(oracle, zs.front());
  const double resid =
      rel_residual(*prob, solve_all(oracle, zs, std::move(x0)), zs);
  const bool resid_ok = resid <= kResidualCeiling * kTolLoose;

  // A repetition every rank finished is timed even when its factor is
  // wrong: the failure is counted, the run still reports.
  std::vector<double> wall, cpu, traced_wall;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    ++out.attempted;
    std::string why;
    for (std::size_t r = 0; r < reps[k].ranks.size() && why.empty(); ++r)
      if (!reps[k].ranks[r].ok) why = reps[k].ranks[r].error;
    if (!why.empty()) {
      out.fail("repetition " + std::to_string(k) + ": " + why);
      continue;
    }
    for (std::size_t r = 0; r < reps[k].ranks.size() && why.empty(); ++r) {
      const RankRecord& rec = reps[k].ranks[r];
      if (rec.placement != placement)
        why = "ranks disagree on the placement";
      else if (rec.owned_hash != expect[r])
        why = "rank " + std::to_string(r) +
              " owned tiles differ from the in-process oracle";
    }
    if (why.empty() && !resid_ok)
      why = "rel_residual " + json_number(resid) + " above " +
            json_number(kResidualCeiling * kTolLoose);
    if (why.empty() && k + 1 == reps.size() && !bad_exits.empty())
      why = bad_exits.front();
    if (!why.empty()) out.fail("repetition " + std::to_string(k) + ": " + why);
    std::printf("# repetition %zu%s: slowest rank %s s, %s retransmits\n", k,
                reps[k].traced ? " (traced)" : "",
                json_number(reps[k].wall()).c_str(),
                json_number(reps[k].sum(&RankRecord::retransmits)).c_str());
    (reps[k].traced ? traced_wall : wall).push_back(reps[k].wall());
    if (!reps[k].traced)
      cpu.push_back(reps[k].sum(&RankRecord::cpu_s));
  }
  if (wall.empty()) return out;

  const RepView& first = reps.front();
  double mesh_up0 = 0.0;
  for (const auto& r : first.ranks) mesh_up0 = std::max(mesh_up0, r.mesh_up_s);
  const double probe_s = first.ranks.front().probe_s;

  report.set_median("time_to_solution_s", wall);
  report.set_median("cpu_s", cpu);
  report.set("setup_s", median(build_s) + mesh_up0 + probe_s);
  report.set("peak_rss_mb", reps.back().sum(&RankRecord::peak_rss_mb));
  report.set("rel_residual", resid);
  report.set("verified_frac", 1.0 - failed_frac(out.failed, out.attempted));
  if (!opt.trace || traced_wall.empty()) return out;

  // ------------------------------------------------------- traced run only
  std::vector<double> compute, blocked, mesh_up;
  const RepView* last = nullptr;
  const RepView* traced = nullptr;
  for (const RepView& v : reps) {
    (v.traced ? traced : last) = &v;
    double up = 0.0;
    for (const auto& r : v.ranks) up = std::max(up, r.mesh_up_s);
    mesh_up.push_back(up);
    if (v.traced) continue;
    const double n = static_cast<double>(v.ranks.size());
    const double waited = v.sum(&RankRecord::blocked_recv_s);
    blocked.push_back(waited / n);
    compute.push_back((v.sum(&RankRecord::factor_s) - waited) / n);
  }
  const double tile_gen = tile_gen_seconds(*prob);
  report.set("stars.tile_gen_s", tile_gen);
  report.set("tlr.from_problem_s", median(from_problem_s));
  report.set("compress.initial_s",
             median(from_problem_s) - tile_gen / build_threads);
  report.set("compress.useful_tile_frac", useful);
  report.set("core.tune_s", median(tune_s));
  report.set("tlr.densify_s", median(densify_s));
  report.set("core.graph_s", 0.0);
  report.set("core.band_size", band);
  zero_executor_metrics(report);
  report.set("dense.gemm_peak_gflops", dense_gemm_gflops());
  const double comp = traced->sum(&RankRecord::recompressions);
  report.set("compress.recompressions", comp);
  report.set("compress.rank_out_mean",
             comp > 0 ? traced->sum(&RankRecord::rank_out_sum) / comp
                      : 0.0);
  report.set("compress.fallbacks",
             traced->sum(&RankRecord::fallbacks));
  report.set("tlr.footprint_mb",
             static_cast<double>(oracle.footprint_elements()) * 8.0 / 1e6);

  const double factor_s = median(wall);
  report.set("dist.factor_s", factor_s);
  report.set("dist.compute_s", median(compute));
  report.set("dist.blocked_recv_s", median(blocked));
  report.set("dist.blocked_recv_frac",
             median(blocked) / (median(blocked) + median(compute)));
  report.set("dist.messages", last->sum(&RankRecord::messages));
  report.set("dist.bytes", last->sum(&RankRecord::bytes));
  report.set("dist.root_egress_bytes",
             last->sum(&RankRecord::root_egress_bytes));
  report.set("dist.forwards", last->sum(&RankRecord::forwards));
  const double hits = last->sum(&RankRecord::prefetch_hits);
  const double gets =
      hits + last->sum(&RankRecord::prefetch_misses);
  report.set("dist.prefetch_hit_frac", gets > 0 ? hits / gets : 0.0);
  {
    tlr::TlrMatrix a = *pristine;
    core::CholeskyConfig cfg = factor_config(kTolLoose, 1, false);
    cfg.band_size = band;
    const core::CholeskyResult one = core::factorize(a, nullptr, cfg);
    report.set("dist.speedup_vs_1w", one.exec.seconds / factor_s);
  }
  report.set("net.mesh_up_s", median(mesh_up));
  report.set("net.frames_sent",
             last->sum(&RankRecord::frames_sent));
  report.set("net.bytes_sent", last->sum(&RankRecord::bytes_sent));
  double retransmits = 0.0, events = 0.0;
  for (const RepView& v : reps) {
    retransmits += v.sum(&RankRecord::retransmits);
    events += v.sum(&RankRecord::recovery_events);
  }
  report.set("net.retransmits", retransmits);
  report.set("core.placement", placement);
  report.set("core.placement_probe_s", probe_s);
  report.set("resilience.events", events);
  report.set("obs.trace_overhead_frac", median(traced_wall) / factor_s - 1.0);
  return out;
}

}  // namespace perfbench
