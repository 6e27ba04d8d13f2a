// Panel packing for the blocked GEMM engine (layout contract in
// gemm_kernel.hpp).
//
// Packing is the only place the four Trans cases differ: after it, the
// macro-kernel sees one canonical layout, so a T*T GEMM runs the same
// microkernel as N*N. The register tile arrives as a template argument from
// gemm_kernel.cpp, so packer and microkernel cannot disagree on it. The
// buffers are zero-padded to full MR/NR micro-panels, which lets the
// microkernel always run full-width and defer edge handling to the
// write-back.
#include "dense/gemm_kernel.hpp"

namespace ptlr::dense::detail {

namespace {

// Interleave `w` <= W source columns, each contiguous in p, into a W-wide
// micro-panel: dst[p * W + j] = scale * src_j[p], lanes j >= w zeroed. A
// full panel walks p outer over W read streams, so every packed row is
// written once, contiguously; walking the columns outer instead writes
// each row W times at a W-element stride.
template <int W>
void interleave(const double* const* src, int w, int kc, double scale,
                double* dst) {
  if (w == W) {
    for (int p = 0; p < kc; ++p) {
      double* row = dst + static_cast<std::size_t>(p) * W;
      for (int j = 0; j < W; ++j) row[j] = scale * src[j][p];
    }
    return;
  }
  for (int p = 0; p < kc; ++p) {
    double* row = dst + static_cast<std::size_t>(p) * W;
    for (int j = 0; j < w; ++j) row[j] = scale * src[j][p];
    for (int j = w; j < W; ++j) row[j] = 0.0;
  }
}

}  // namespace

template <int MR>
void pack_a(Trans ta, double alpha, ConstMatrixView a, int i0, int p0,
            int mc, int kc, double* buf) {
  // alpha is folded into the packed A so the microkernel stays pure FMA.
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = mc - ir < MR ? mc - ir : MR;
    if (ta == Trans::N) {
      // op(A)(i, p) = a(i0 + i, p0 + p); columns of a are contiguous.
      for (int p = 0; p < kc; ++p) {
        const double* src = a.col(p0 + p) + i0 + ir;
        double* dst = buf + p * MR;
        for (int i = 0; i < mr; ++i) dst[i] = alpha * src[i];
        for (int i = mr; i < MR; ++i) dst[i] = 0.0;
      }
    } else {
      // op(A)(i, p) = a(p0 + p, i0 + i): column i0 + i of a, contiguous in
      // p, becomes lane i of the micro-panel.
      const double* src[MR] = {};
      for (int i = 0; i < mr; ++i) src[i] = a.col(i0 + ir + i) + p0;
      interleave<MR>(src, mr, kc, alpha, buf);
    }
    buf += static_cast<std::size_t>(kc) * MR;
  }
}

template <int NR>
void pack_b(Trans tb, ConstMatrixView b, int p0, int j0, int kc, int nc,
            double* buf) {
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = nc - jr < NR ? nc - jr : NR;
    if (tb == Trans::N) {
      // op(B)(p, j) = b(p0 + p, j0 + j): column j0 + j of b, contiguous in
      // p, becomes lane j of the micro-panel.
      const double* src[NR] = {};
      for (int j = 0; j < nr; ++j) src[j] = b.col(j0 + jr + j) + p0;
      interleave<NR>(src, nr, kc, 1.0, buf);  // exact copy
    } else {
      // op(B)(p, j) = b(j0 + j, p0 + p); contiguous in j per column of b.
      for (int p = 0; p < kc; ++p) {
        const double* src = b.col(p0 + p) + j0 + jr;
        double* dst = buf + p * NR;
        for (int j = 0; j < nr; ++j) dst[j] = src[j];
        for (int j = nr; j < NR; ++j) dst[j] = 0.0;
      }
    }
    buf += static_cast<std::size_t>(kc) * NR;
  }
}

template void pack_a<8>(Trans, double, ConstMatrixView, int, int, int, int,
                        double*);
template void pack_a<16>(Trans, double, ConstMatrixView, int, int, int, int,
                         double*);
template void pack_b<6>(Trans, ConstMatrixView, int, int, int, int, double*);
template void pack_b<12>(Trans, ConstMatrixView, int, int, int, int, double*);

}  // namespace ptlr::dense::detail
