#include "tlr/tlr_matrix.hpp"

#include <algorithm>
#include <string>

#include "runtime/executor.hpp"

namespace ptlr::tlr {

TlrMatrix::TlrMatrix(int n, int tile_size)
    : n_(n), b_(tile_size), nt_((n + tile_size - 1) / tile_size) {
  PTLR_CHECK(n > 0 && tile_size > 0, "bad TLR matrix geometry");
  tiles_.resize(static_cast<std::size_t>(nt_) * (nt_ + 1) / 2);
}

std::size_t TlrMatrix::index(int i, int j) const {
  PTLR_CHECK(i >= 0 && i < nt_ && j >= 0 && j <= i,
             "tile index outside the lower triangle");
  return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
}

int TlrMatrix::tile_rows(int i) const {
  PTLR_ASSERT(i >= 0 && i < nt_, "tile row out of range");
  return std::min(b_, n_ - i * b_);
}

Tile& TlrMatrix::at(int i, int j) { return tiles_[index(i, j)]; }
const Tile& TlrMatrix::at(int i, int j) const { return tiles_[index(i, j)]; }

namespace {

// Generate-and-compress one tile; shared by the sequential and parallel
// builders. Per-tile RNG seeding keeps results independent of the build
// order/thread count.
Tile build_tile(const stars::CovarianceProblem& prob, const TlrMatrix& m,
                int i, int j, const compress::Accuracy& acc, int band_size,
                compress::Method method, std::uint64_t method_seed) {
  const int r0 = m.row_offset(i), c0 = m.row_offset(j);
  const int rows = m.tile_rows(i), cols = m.tile_rows(j);
  if (TlrMatrix::on_band(i, j, band_size)) {
    return Tile::make_dense(prob.block(r0, c0, rows, cols));
  }
  if (method == compress::Method::kAca) {
    // Entry-oracle path: the dense tile is never materialized unless the
    // compression fails and the tile must stay dense.
    auto f = compress::compress_aca_oracle(
        rows, cols,
        [&prob, r0, c0](int r, int c) { return prob.entry(r0 + r, c0 + c); },
        acc);
    if (f) return Tile::make_lowrank(std::move(*f));
    return Tile::make_dense(prob.block(r0, c0, rows, cols));
  }
  Rng rng(method_seed ^
          (static_cast<std::uint64_t>(i) * m.nt() + j) * 0x9E3779B9ull);
  dense::Matrix blk = prob.block(r0, c0, rows, cols);
  auto f = compress::compress_with(method, blk.view(), acc, rng);
  if (f) return Tile::make_lowrank(std::move(*f));
  // Rank above the admissible cap: stay dense (densify-by-need).
  return Tile::make_dense(std::move(blk));
}

}  // namespace

TlrMatrix TlrMatrix::from_problem(const stars::CovarianceProblem& prob,
                                  int tile_size,
                                  const compress::Accuracy& acc,
                                  int band_size, compress::Method method,
                                  std::uint64_t method_seed) {
  TlrMatrix m(prob.n(), tile_size);
  m.acc_ = acc;
  m.band_size_ = band_size;
  for (int i = 0; i < m.nt_; ++i) {
    for (int j = 0; j <= i; ++j) {
      m.at(i, j) =
          build_tile(prob, m, i, j, acc, band_size, method, method_seed);
    }
  }
  return m;
}

TlrMatrix TlrMatrix::from_problem_parallel(
    const stars::CovarianceProblem& prob, int tile_size,
    const compress::Accuracy& acc, int nthreads, int band_size,
    compress::Method method, std::uint64_t method_seed) {
  PTLR_CHECK(nthreads >= 1, "need at least one worker");
  TlrMatrix m(prob.n(), tile_size);
  m.acc_ = acc;
  m.band_size_ = band_size;
  // One task per tile. Tiles are disjoint, so the graph has no edges; the
  // compressed (off-band) tiles get the higher priority band so the cheap
  // dense copies fill in at the end instead of leaving a long compression
  // as the last straggler.
  rt::TaskGraph g;
  for (int i = 0; i < m.nt_; ++i) {
    for (int j = 0; j <= i; ++j) {
      rt::TaskInfo t;
      t.name = "tile(" + std::to_string(i) + "," + std::to_string(j) + ")";
      t.priority = on_band(i, j, band_size) ? 0.0 : 1.0;
      t.fn = [&, i, j] {
        m.at(i, j) =
            build_tile(prob, m, i, j, acc, band_size, method, method_seed);
      };
      g.add_task(std::move(t), {}, {});
    }
  }
  rt::execute(g, nthreads);
  return m;
}

void TlrMatrix::densify_band(int band_size,
                             const stars::CovarianceProblem* regen) {
  PTLR_CHECK(band_size >= 1, "band size must include the diagonal");
  for (int i = 0; i < nt_; ++i) {
    for (int j = std::max(0, i - band_size + 1); j <= i; ++j) {
      Tile& t = at(i, j);
      if (t.is_dense()) continue;
      if (regen != nullptr) {
        t = Tile::make_dense(regen->block(row_offset(i), row_offset(j),
                                          tile_rows(i), tile_rows(j)));
      } else {
        t.densify();
      }
    }
  }
  band_size_ = std::max(band_size_, band_size);
}

int TlrMatrix::sparsify_offdiagonal(const compress::Accuracy& acc) {
  int switched = 0;
  bool band_touched = false;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j < i; ++j) {
      Tile& t = at(i, j);
      if (!t.is_dense()) continue;
      auto f = compress::compress(t.dense_data().view(), acc);
      // Switch only when the low-rank form actually saves memory
      // (2·b·k < b² — the maxrank < b/2 competitiveness rule).
      if (f && f->elements() < t.elements()) {
        t = Tile::make_lowrank(std::move(*f));
        ++switched;
        if (on_band(i, j, band_size_)) band_touched = true;
      }
    }
  if (band_touched) band_size_ = 1;
  return switched;
}

RankStats TlrMatrix::rank_stats() const {
  RankStats s;
  s.min = n_ + 1;
  long long count = 0, total = 0;
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j < i; ++j) {
      const Tile& t = at(i, j);
      if (!t.is_lowrank()) continue;
      const int k = t.rank();
      s.min = std::min(s.min, k);
      s.max = std::max(s.max, k);
      total += k;
      ++count;
    }
  if (count == 0) {
    s.min = 0;
    return s;
  }
  s.avg = static_cast<double>(total) / static_cast<double>(count);
  return s;
}

std::vector<int> TlrMatrix::subdiag_maxrank() const {
  std::vector<int> out(nt_, 0);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j) {
      const int d = i - j;
      out[d] = std::max(out[d], at(i, j).rank());
    }
  return out;
}

std::vector<double> TlrMatrix::rank_field() const {
  std::vector<double> field(static_cast<std::size_t>(nt_) * nt_, -1.0);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j)
      field[static_cast<std::size_t>(i) * nt_ + j] = at(i, j).rank();
  return field;
}

std::size_t TlrMatrix::footprint_elements() const {
  std::size_t total = 0;
  for (const Tile& t : tiles_) total += t.elements();
  return total;
}

std::size_t TlrMatrix::static_footprint_elements(int maxrank) const {
  // PaRSEC-HiCMA-Prev descriptor: b² per diagonal tile, 2·b·maxrank per
  // off-diagonal tile regardless of actual rank.
  std::size_t total = 0;
  for (int i = 0; i < nt_; ++i) {
    total += static_cast<std::size_t>(tile_rows(i)) * tile_rows(i);
    for (int j = 0; j < i; ++j) {
      total += 2 * static_cast<std::size_t>(b_) * maxrank;
    }
  }
  return total;
}

dense::Matrix TlrMatrix::to_dense() const {
  dense::Matrix out(n_, n_);
  for (int i = 0; i < nt_; ++i)
    for (int j = 0; j <= i; ++j) {
      const dense::Matrix blk = at(i, j).to_dense();
      const int r0 = row_offset(i), c0 = row_offset(j);
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          out(r0 + r, c0 + c) = blk(r, c);
          out(c0 + c, r0 + r) = blk(r, c);
        }
    }
  return out;
}

}  // namespace ptlr::tlr
