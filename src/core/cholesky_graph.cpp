#include "core/cholesky_graph.hpp"

#include <algorithm>

#include "hcore/kernels.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

using flops::Kernel;
using rt::DataKey;
using rt::make_key;
using rt::TaskInfo;

// Sub-block partition of one tile dimension for recursive kernels.
struct SubGrid {
  std::vector<int> off, sz;
  SubGrid(int n, int rb) {
    for (int o = 0; o < n; o += rb) {
      off.push_back(o);
      sz.push_back(std::min(rb, n - o));
    }
  }
  [[nodiscard]] int s() const { return static_cast<int>(off.size()); }
};

class Builder {
 public:
  Builder(tlr::TlrMatrix* mat, const RankMap* ranks, const GraphOptions& opt,
          bool skip_tlr_gemm)
      : mat_(mat), opt_(opt), skip_tlr_gemm_(skip_tlr_gemm) {
    if (mat_ != nullptr) {
      nt_ = mat_->nt();
      b_ = mat_->tile_size();
      n_ = mat_->n();
    } else {
      PTLR_CHECK(ranks != nullptr, "need a matrix or a rank map");
      nt_ = ranks->nt();
      b_ = ranks->tile_size();
      n_ = nt_ * b_;
    }
    // Working copies of format/rank: the generator tracks densification-on-
    // demand so kernel selection stays consistent along the unrolling.
    fmt_.resize(static_cast<std::size_t>(nt_) * (nt_ + 1) / 2);
    rank_.resize(fmt_.size());
    for (int i = 0; i < nt_; ++i)
      for (int j = 0; j <= i; ++j) {
        const bool d = mat_ != nullptr ? mat_->at(i, j).is_dense()
                                       : ranks->is_dense(i, j);
        const int k = mat_ != nullptr ? mat_->at(i, j).rank()
                                      : ranks->rank(i, j);
        fmt_[tri(i, j)] = d ? 1 : 0;
        rank_[tri(i, j)] = k;
      }
    rb_ = opt_.recursive_block > 0 ? opt_.recursive_block
                                   : std::max(b_ / 4, 16);
  }

  rt::TaskGraph build(GraphStats* stats) {
    for (int k = 0; k < nt_; ++k) {
      add_potrf(k);
      for (int i = k + 1; i < nt_; ++i) add_trsm(k, i);
      for (int i = k + 1; i < nt_; ++i) {
        add_syrk(k, i);
        for (int j = k + 1; j < i; ++j) add_gemm(k, i, j);
      }
    }
    if (stats != nullptr) *stats = stats_;
    return std::move(g_);
  }

 private:
  // ------------------------------------------------------------ helpers --
  [[nodiscard]] std::size_t tri(int i, int j) const {
    return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
  }
  [[nodiscard]] bool is_dense(int i, int j) const {
    return fmt_[tri(i, j)] != 0;
  }
  [[nodiscard]] int rank_of(int i, int j) const { return rank_[tri(i, j)]; }
  [[nodiscard]] int rows_of(int i) const { return std::min(b_, n_ - i * b_); }
  [[nodiscard]] int owner(int i, int j) const {
    return opt_.dist != nullptr ? opt_.dist->owner(i, j) : 0;
  }
  [[nodiscard]] std::size_t tile_bytes(int i, int j) const {
    if (is_dense(i, j))
      return static_cast<std::size_t>(rows_of(i)) * rows_of(j) * 8;
    return 2ull * static_cast<std::size_t>(b_) * std::max(rank_of(i, j), 1) *
           8;
  }
  [[nodiscard]] static DataKey tile_key(int i, int j) {
    return make_key(0, static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(j));
  }
  [[nodiscard]] DataKey sub_key(int i, int j, int ii, int jj) const {
    return make_key(1, static_cast<std::uint32_t>(i * nt_ + j),
                    static_cast<std::uint32_t>(ii * 4096 + jj));
  }
  DataKey next_token() {
    const auto c = token_++;
    return make_key(2, static_cast<std::uint32_t>(c >> 24),
                    static_cast<std::uint32_t>(c & 0xFFFFFF));
  }
  [[nodiscard]] double dur(Kernel kernel, int bb, int kk) const {
    return opt_.cost != nullptr ? opt_.cost->duration(kernel, bb, kk) : 0.0;
  }
  [[nodiscard]] double dur_flops(double f, bool dense_class) const {
    return opt_.cost != nullptr ? opt_.cost->duration_flops(f, dense_class)
                                : 0.0;
  }
  [[nodiscard]] double prio(int panel, double boost) const {
    return (nt_ - panel) * 16.0 + boost;
  }
  void charge(Kernel kernel, int bb, int kk) {
    const double f = flops::model(kernel, bb, kk);
    stats_.model_flops += f;
    if (CostModel::is_dense_kernel(kernel)) stats_.model_flops_dense += f;
  }

  // Declare tile (i, j) as the task's (sole) output so the executor's
  // recovery layer can snapshot/restore it around fault-injected attempts.
  void attach_output(TaskInfo& t, int i, int j) {
    if (mat_ == nullptr) return;
    auto* m = mat_;
    rt::TaskOutput out;
    out.save = [m, i, j] { return tlr::tile_to_bytes(m->at(i, j)); };
    out.restore = [m, i, j](const std::vector<char>& bytes) {
      m->at(i, j) = tlr::tile_from_bytes(bytes);
    };
    out.finite = [m, i, j] { return m->at(i, j).payload_finite(); };
    out.poison = [m, i, j](std::uint64_t h) {
      return m->at(i, j).poison_payload(h);
    };
    t.outputs.push_back(std::move(out));
  }

  rt::TaskId add(TaskInfo info, std::initializer_list<DataKey> reads,
                 std::initializer_list<DataKey> writes) {
    stats_.tasks++;
    return g_.add_task(std::move(info),
                       std::span<const DataKey>(reads.begin(), reads.size()),
                       std::span<const DataKey>(writes.begin(),
                                                writes.size()));
  }
  rt::TaskId addv(TaskInfo info, const std::vector<DataKey>& reads,
                  const std::vector<DataKey>& writes) {
    stats_.tasks++;
    return g_.add_task(std::move(info), reads, writes);
  }

  // ------------------------------------------------------ whole kernels --
  void add_potrf(int k) {
    const int bk = rows_of(k);
    charge(Kernel::kPotrf1, bk, 0);
    const bool recurse = (opt_.recursive_all || opt_.recursive_potrf) &&
                         bk > rb_;
    if (recurse) {
      rec_potrf(k);
      return;
    }
    TaskInfo t;
    t.name = "potrf(" + std::to_string(k) + ")";
    t.kind = static_cast<int>(Kernel::kPotrf1);
    t.panel = k;
    t.ti = k;
    t.tj = k;
    t.priority = prio(k, 12.0);
    t.owner = owner(k, k);
    t.device_class = 1;  // dense critical-path kernel
    t.duration = dur(Kernel::kPotrf1, bk, 0);
    t.output_bytes = tile_bytes(k, k);
    if (mat_ != nullptr) {
      auto* m = mat_;
      // Rebase a breakdown's pivot index from in-tile (1-based) to global
      // (1-based) so the driver's shift-and-restart policy can report
      // where the factorization failed, independent of tiling.
      const int b = b_;
      t.fn = [m, k, b] {
        try {
          hcore::potrf(m->at(k, k));
        } catch (const NumericalError& e) {
          const std::int64_t pivot =
              static_cast<std::int64_t>(k) * b + e.info();
          throw NumericalError("cholesky breakdown: non-positive global "
                               "pivot " + std::to_string(pivot),
                               pivot);
        }
      };
      attach_output(t, k, k);
    }
    add(std::move(t), {}, {tile_key(k, k)});
    stats_.tasks_band++;
  }

  void add_trsm(int k, int i) {
    const bool dense_tile = is_dense(i, k);
    const Kernel kernel = dense_tile ? Kernel::kTrsm1 : Kernel::kTrsm4;
    const int kk = dense_tile ? 0 : rank_of(i, k);
    charge(kernel, rows_of(i), kk);
    if (dense_tile && opt_.recursive_all && rows_of(i) > rb_) {
      rec_trsm(k, i);
      return;
    }
    TaskInfo t;
    t.name = "trsm(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.kind = static_cast<int>(kernel);
    t.panel = k;
    t.ti = i;
    t.tj = k;
    t.priority = prio(k, 8.0);
    t.owner = owner(i, k);
    t.device_class = dense_tile ? 1 : 0;
    t.duration = dur(kernel, rows_of(i), kk);
    t.output_bytes = tile_bytes(i, k);
    if (mat_ != nullptr) {
      auto* m = mat_;
      t.fn = [m, k, i] { hcore::trsm(m->at(k, k), m->at(i, k)); };
      attach_output(t, i, k);
    }
    add(std::move(t), {tile_key(k, k)}, {tile_key(i, k)});
    if (dense_tile) stats_.tasks_band++;
  }

  void add_syrk(int k, int i) {
    const bool dense_a = is_dense(i, k);
    const Kernel kernel = dense_a ? Kernel::kSyrk1 : Kernel::kSyrk3;
    const int kk = dense_a ? 0 : rank_of(i, k);
    charge(kernel, rows_of(i), kk);
    if (dense_a && opt_.recursive_all && rows_of(i) > rb_) {
      rec_syrk(k, i);
      return;
    }
    TaskInfo t;
    t.name = "syrk(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.kind = static_cast<int>(kernel);
    t.panel = k;
    t.ti = i;
    t.tj = i;
    t.priority = prio(k, 6.0);
    t.owner = owner(i, i);
    t.device_class = dense_a ? 1 : 0;
    t.duration = dur(kernel, rows_of(i), kk);
    t.output_bytes = tile_bytes(i, i);
    if (mat_ != nullptr) {
      auto* m = mat_;
      t.fn = [m, k, i] { hcore::syrk(m->at(i, k), m->at(i, i)); };
      attach_output(t, i, i);
    }
    add(std::move(t), {tile_key(i, k)}, {tile_key(i, i)});
    stats_.tasks_band++;
  }

  void add_gemm(int k, int i, int j) {
    const bool ad = is_dense(i, k), bd = is_dense(j, k);
    bool cd = is_dense(i, j);
    if (!cd && ad && bd) {
      // Densification-on-demand (stray dense operands): C becomes dense.
      fmt_[tri(i, j)] = 1;
      rank_[tri(i, j)] = std::min(rows_of(i), rows_of(j));
      cd = true;
    }
    int kk = 0;
    if (!ad) kk = std::max(kk, rank_of(i, k));
    if (!bd) kk = std::max(kk, rank_of(j, k));
    if (!cd) kk = std::max(kk, rank_of(i, j));
    Kernel kernel;
    if (cd) {
      kernel = ad && bd ? Kernel::kGemm1
                        : (ad || bd ? Kernel::kGemm2 : Kernel::kGemm3);
    } else {
      kernel = (ad || bd) ? Kernel::kGemm5 : Kernel::kGemm6;
    }
    if (skip_tlr_gemm_ && !cd) return;  // Fig. 10 "No_TLR_GEMM" variant
    charge(kernel, b_, kk);
    if (kernel == Kernel::kGemm1 && opt_.recursive_all && rows_of(i) > rb_ &&
        is_dense(i, j)) {
      rec_gemm(k, i, j);
      return;
    }
    TaskInfo t;
    t.name = "gemm(" + std::to_string(i) + "," + std::to_string(j) + "," +
             std::to_string(k) + ")";
    t.kind = static_cast<int>(kernel);
    t.panel = k;
    t.ti = i;
    t.tj = j;
    t.priority = prio(k, cd ? 4.0 : 0.0);
    t.owner = owner(i, j);
    t.device_class = kernel == Kernel::kGemm1 ? 1 : 0;
    t.duration = dur(kernel, b_, std::max(kk, 1));
    t.output_bytes = tile_bytes(i, j);
    if (mat_ != nullptr) {
      auto* m = mat_;
      auto acc = opt_.acc;
      // Schedule-invariant seed for the randomized recompression engines:
      // a pure hash of (base seed, target tile, panel), fixed at graph
      // construction — the sketch a tile's update draws does not depend on
      // which worker runs it or in what order (per-tile update order is
      // already serialized by the tile-key write dependencies).
      acc.policy.seed = compress::site_seed(
          acc.policy.seed,
          static_cast<std::uint64_t>(i) * static_cast<std::uint64_t>(nt_) +
              static_cast<std::uint64_t>(j),
          static_cast<std::uint64_t>(k));
      t.fn = [m, k, i, j, acc] {
        hcore::gemm(m->at(i, k), m->at(j, k), m->at(i, j), acc);
      };
      attach_output(t, i, j);
    }
    add(std::move(t), {tile_key(i, k), tile_key(j, k)}, {tile_key(i, j)});
    if (cd) stats_.tasks_band++;
  }

  // -------------------------------------------------- recursive kernels --
  // Modelled only (simulation mode): real runs split band kernels through
  // nested children inside the one tile task (runtime/nested.hpp). Each
  // group is a split → sub-kernels → merge sub-DAG. The split writes the
  // whole-tile key (inheriting all pending dependencies), sub-kernels
  // synchronize through a per-group token plus sub-block keys, and the
  // merge re-publishes the whole-tile key for downstream consumers. All
  // group tasks run on the tile owner (PaRSEC nested computing is
  // process-local).

  struct Group {
    DataKey token;
    int proc;
    int panel;
    int ti, tj;  ///< whole-tile coordinates (inherited by sub-tasks)
    double priority;
  };

  Group open_group(const char* what, int panel, int i, int j, double boost) {
    Group grp{next_token(), owner(i, j), panel, i, j, prio(panel, boost)};
    TaskInfo s;
    s.name = std::string(what) + "_split(" + std::to_string(i) + "," +
             std::to_string(j) + ")";
    s.kind = -1;  // structural task, no kernel class
    s.panel = panel;
    s.ti = i;
    s.tj = j;
    s.priority = grp.priority + 1.0;
    s.owner = grp.proc;
    add(std::move(s), {}, {tile_key(i, j), grp.token});
    return grp;
  }

  void close_group(const char* what, const Group& grp, int i, int j,
                   const std::vector<DataKey>& sub_reads) {
    TaskInfo m;
    m.name = std::string(what) + "_merge(" + std::to_string(i) + "," +
             std::to_string(j) + ")";
    m.kind = -1;  // structural task, no kernel class
    m.panel = grp.panel;
    m.ti = i;
    m.tj = j;
    m.priority = grp.priority;
    m.owner = grp.proc;
    m.output_bytes = tile_bytes(i, j);
    addv(std::move(m), sub_reads, {tile_key(i, j)});
  }

  TaskInfo sub_info(const Group& grp, std::string name, Kernel kind,
                    double flop_count) {
    TaskInfo t;
    t.name = std::move(name);
    t.kind = static_cast<int>(kind);
    t.panel = grp.panel;
    t.ti = grp.ti;
    t.tj = grp.tj;
    t.priority = grp.priority;
    t.owner = grp.proc;
    t.device_class = 1;  // recursion only targets dense region-(1) kernels
    t.duration = dur_flops(flop_count, /*dense_class=*/true);
    return t;
  }

  void rec_potrf(int k) {
    const int bk = rows_of(k);
    const SubGrid gr(bk, rb_);
    const int s = gr.s();
    const Group grp = open_group("potrf", k, k, k, 12.0);
    std::vector<DataKey> subs;
    for (int kk = 0; kk < s; ++kk) {
      add(sub_info(grp, "potrf_sub", Kernel::kPotrf1, flops::potrf(gr.sz[kk])),
          {grp.token}, {sub_key(k, k, kk, kk)});
      subs.push_back(sub_key(k, k, kk, kk));
      for (int ii = kk + 1; ii < s; ++ii) {
        add(sub_info(grp, "trsm_sub", Kernel::kTrsm1,
                     flops::trsm(gr.sz[kk], gr.sz[ii])),
            {grp.token, sub_key(k, k, kk, kk)}, {sub_key(k, k, ii, kk)});
        subs.push_back(sub_key(k, k, ii, kk));
      }
      for (int ii = kk + 1; ii < s; ++ii) {
        add(sub_info(grp, "syrk_sub", Kernel::kSyrk1,
                     flops::syrk(gr.sz[ii], gr.sz[kk])),
            {grp.token, sub_key(k, k, ii, kk)}, {sub_key(k, k, ii, ii)});
        for (int jj = kk + 1; jj < ii; ++jj) {
          add(sub_info(grp, "gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gr.sz[jj], gr.sz[kk])),
              {grp.token, sub_key(k, k, ii, kk), sub_key(k, k, jj, kk)},
              {sub_key(k, k, ii, jj)});
        }
      }
    }
    close_group("potrf", grp, k, k, subs);
    stats_.tasks_band++;
  }

  void rec_trsm(int k, int i) {
    const int bi = rows_of(i), bk = rows_of(k);
    const SubGrid gr(bi, rb_), gc(bk, rb_);
    const Group grp = open_group("trsm", k, i, k, 8.0);
    std::vector<DataKey> subs;
    for (int j = 0; j < gc.s(); ++j) {
      for (int ii = 0; ii < gr.s(); ++ii) {
        for (int p = 0; p < j; ++p) {
          add(sub_info(grp, "trsm_gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gc.sz[j], gc.sz[p])),
              {grp.token, tile_key(k, k), sub_key(i, k, ii, p)},
              {sub_key(i, k, ii, j)});
        }
        add(sub_info(grp, "trsm_sub", Kernel::kTrsm1,
                     flops::trsm(gc.sz[j], gr.sz[ii])),
            {grp.token, tile_key(k, k)}, {sub_key(i, k, ii, j)});
        subs.push_back(sub_key(i, k, ii, j));
      }
    }
    close_group("trsm", grp, i, k, subs);
    stats_.tasks_band++;
  }

  void rec_syrk(int k, int i) {
    const int bi = rows_of(i), bk = rows_of(k);
    const SubGrid gr(bi, rb_), gc(bk, rb_);
    const Group grp = open_group("syrk", k, i, i, 6.0);
    std::vector<DataKey> subs;
    for (int ii = 0; ii < gr.s(); ++ii)
      for (int jj = 0; jj <= ii; ++jj) {
        for (int p = 0; p < gc.s(); ++p) {
          const bool diag = ii == jj;
          add(sub_info(grp, diag ? "syrk_sub" : "syrk_gemm_sub",
                       diag ? Kernel::kSyrk1 : Kernel::kGemm1,
                       diag ? flops::syrk(gr.sz[ii], gc.sz[p])
                            : flops::gemm(gr.sz[ii], gr.sz[jj], gc.sz[p])),
              {grp.token, tile_key(i, k)}, {sub_key(i, i, ii, jj)});
        }
        subs.push_back(sub_key(i, i, ii, jj));
      }
    close_group("syrk", grp, i, i, subs);
    stats_.tasks_band++;
  }

  void rec_gemm(int k, int i, int j) {
    const int bi = rows_of(i), bj = rows_of(j), bk = rows_of(k);
    const SubGrid gr(bi, rb_), gcn(bj, rb_), gp(bk, rb_);
    const Group grp = open_group("gemm", k, i, j, 4.0);
    std::vector<DataKey> subs;
    for (int ii = 0; ii < gr.s(); ++ii)
      for (int jj = 0; jj < gcn.s(); ++jj) {
        for (int p = 0; p < gp.s(); ++p) {
          add(sub_info(grp, "gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gcn.sz[jj], gp.sz[p])),
              {grp.token, tile_key(i, k), tile_key(j, k)},
              {sub_key(i, j, ii, jj)});
        }
        subs.push_back(sub_key(i, j, ii, jj));
      }
    close_group("gemm", grp, i, j, subs);
    stats_.tasks_band++;
  }

  tlr::TlrMatrix* mat_;
  GraphOptions opt_;
  bool skip_tlr_gemm_;
  int nt_ = 0, b_ = 0, n_ = 0, rb_ = 0;
  std::vector<char> fmt_;
  std::vector<int> rank_;
  std::uint64_t token_ = 0;
  rt::TaskGraph g_;
  GraphStats stats_;
};

}  // namespace

rt::TaskGraph build_cholesky_graph(tlr::TlrMatrix& mat,
                                   const GraphOptions& opt,
                                   GraphStats* stats) {
  PTLR_CHECK(!opt.recursive_all && !opt.recursive_potrf,
             "recursive sub-DAGs are simulation-only; real runs split band "
             "kernels through nested children");
  Builder b(&mat, nullptr, opt, false);
  return b.build(stats);
}

std::vector<std::set<int>> broadcast_dests(const rt::TaskGraph& g) {
  std::vector<std::set<int>> dests(static_cast<std::size_t>(g.size()));
  for (rt::TaskId p = 0; p < g.size(); ++p)
    for (const rt::TaskId s : g.successors(p))
      if (g.info(s).owner != g.info(p).owner)
        dests[static_cast<std::size_t>(p)].insert(g.info(s).owner);
  return dests;
}

rt::TaskGraph build_cholesky_graph(const RankMap& ranks,
                                   const GraphOptions& opt,
                                   GraphStats* stats) {
  Builder b(nullptr, &ranks, opt, false);
  return b.build(stats);
}

rt::TaskGraph build_cholesky_graph_no_tlr_gemm(const RankMap& ranks,
                                               const GraphOptions& opt,
                                               GraphStats* stats) {
  Builder b(nullptr, &ranks, opt, true);
  return b.build(stats);
}

}  // namespace ptlr::core
