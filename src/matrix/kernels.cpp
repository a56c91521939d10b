#include "matrix/kernels.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "util/contracts.hpp"

// The one place that names the ISA clones (scripts/lint_contracts.py's
// isa-clones rule holds every other target attribute out of src/). A
// kernel carrying it is compiled three times, for x86-64-v4 (AVX-512),
// x86-64-v3 (AVX2) and the baseline, and the loader binds the symbol to
// the best clone the CPU supports. The clones are the same C++ over
// integers, so their results are element-identical; only the vector width
// the compiler may use differs. Only the witness kernel carries it: it is
// the one kernel whose clone has a measured end-to-end gain (exact APSP);
// add it to another kernel only with such a measurement. The macro
// expands to nothing on other platforms, under Clang (no Clang build of
// the clones has been tested) and under ThreadSanitizer: TSan instruments the generated ifunc resolver, which
// the loader runs before the TSan runtime starts, so the process would
// die before main().
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&           \
    !defined(CCA_TSAN)
#define CCA_ISA_CLONES                                               \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default")))
#else
#define CCA_ISA_CLONES
#endif

namespace cca {

Matrix<std::uint8_t> multiply_bool_packed(const Matrix<std::uint8_t>& a,
                                          const Matrix<std::uint8_t>& b) {
  CCA_EXPECTS(a.cols() == b.rows());
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  Matrix<std::uint8_t> out(n, m, 0);
  if (n == 0 || k == 0 || m == 0) return out;

  const std::size_t words_per_row = (static_cast<std::size_t>(m) + 63) / 64;
  std::vector<std::uint64_t> packed(static_cast<std::size_t>(k) *
                                        words_per_row,
                                    0);
  for (int r = 0; r < k; ++r) {
    const std::uint8_t* brow = b.row(r);
    std::uint64_t* prow = packed.data() +
                          static_cast<std::size_t>(r) * words_per_row;
    for (int j = 0; j < m; ++j)
      if (brow[j] != 0)
        prow[static_cast<std::size_t>(j) / 64] |=
            std::uint64_t{1} << (static_cast<std::size_t>(j) % 64);
  }

  std::vector<std::uint64_t> acc(words_per_row);
  for (int i = 0; i < n; ++i) {
    std::fill(acc.begin(), acc.end(), 0);
    const std::uint8_t* arow = a.row(i);
    for (int r = 0; r < k; ++r) {
      if (arow[r] == 0) continue;
      const std::uint64_t* prow = packed.data() +
                                  static_cast<std::size_t>(r) * words_per_row;
      for (std::size_t w = 0; w < words_per_row; ++w) acc[w] |= prow[w];
    }
    std::uint8_t* orow = out.row(i);
    for (int j = 0; j < m; ++j)
      orow[j] = static_cast<std::uint8_t>(
          (acc[static_cast<std::size_t>(j) / 64] >>
           (static_cast<std::size_t>(j) % 64)) &
          1);
  }
  return out;
}

Matrix<std::int64_t> multiply_i64_blocked(const Matrix<std::int64_t>& a,
                                          const Matrix<std::int64_t>& b) {
  CCA_EXPECTS(a.cols() == b.rows());
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  Matrix<std::int64_t> out(n, m, 0);
  if (n == 0 || k == 0 || m == 0) return out;

  // Pack B^T once: column j of B becomes the contiguous run bt[j*k .. j*k+k)
  // so each output entry is a dot product of two contiguous int64 runs.
  std::vector<std::int64_t> bt(static_cast<std::size_t>(k) *
                               static_cast<std::size_t>(m));
  for (int r = 0; r < k; ++r) {
    const std::int64_t* brow = b.row(r);
    for (int j = 0; j < m; ++j)
      bt[static_cast<std::size_t>(j) * static_cast<std::size_t>(k) +
         static_cast<std::size_t>(r)] = brow[j];
  }

  // Four output columns at a time: the A row is read once per tile and four
  // independent accumulators keep the multiply pipeline full.
  const std::size_t ks = static_cast<std::size_t>(k);
  for (int i = 0; i < n; ++i) {
    const std::int64_t* arow = a.row(i);
    std::int64_t* orow = out.row(i);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const std::int64_t* c0 = bt.data() + static_cast<std::size_t>(j) * ks;
      const std::int64_t* c1 = c0 + ks;
      const std::int64_t* c2 = c1 + ks;
      const std::int64_t* c3 = c2 + ks;
      std::int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (int r = 0; r < k; ++r) {
        const std::int64_t air = arow[r];
        s0 += air * c0[r];
        s1 += air * c1[r];
        s2 += air * c2[r];
        s3 += air * c3[r];
      }
      orow[j] = s0;
      orow[j + 1] = s1;
      orow[j + 2] = s2;
      orow[j + 3] = s3;
    }
    for (; j < m; ++j) {
      const std::int64_t* col = bt.data() + static_cast<std::size_t>(j) * ks;
      std::int64_t acc = 0;
      for (int r = 0; r < k; ++r) acc += arow[r] * col[r];
      orow[j] = acc;
    }
  }
  return out;
}

Matrix<std::int64_t> multiply_minplus_blocked(const Matrix<std::int64_t>& a,
                                              const Matrix<std::int64_t>& b) {
  CCA_EXPECTS(a.cols() == b.rows());
  constexpr std::int64_t kInf = MinPlusSemiring::kInf;
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  Matrix<std::int64_t> out(n, m, kInf);
  if (n == 0 || k == 0 || m == 0) return out;

  // Rows of b with no infinite entry take a branch-free inner loop; rows
  // with infinities mirror MinPlusSemiring::mul's saturation exactly by
  // skipping those entries (aik + inf must NOT compete, even for aik < 0).
  std::vector<std::uint8_t> row_has_inf(static_cast<std::size_t>(k), 0);
  for (int r = 0; r < k; ++r) {
    const std::int64_t* brow = b.row(r);
    for (int j = 0; j < m; ++j)
      if (brow[j] >= kInf) {
        row_has_inf[static_cast<std::size_t>(r)] = 1;
        break;
      }
  }

  constexpr int kBlock = 64;  // contraction-dimension tile kept hot in L1
  for (int r0 = 0; r0 < k; r0 += kBlock) {
    const int r1 = std::min(r0 + kBlock, k);
    for (int i = 0; i < n; ++i) {
      std::int64_t* orow = out.row(i);
      const std::int64_t* arow = a.row(i);
      for (int r = r0; r < r1; ++r) {
        const auto aik = arow[r];
        if (aik >= kInf) continue;  // infinite row entry contributes nothing
        const std::int64_t* brow = b.row(r);
        if (!row_has_inf[static_cast<std::size_t>(r)]) {
          for (int j = 0; j < m; ++j) {
            const auto cand = aik + brow[j];
            orow[j] = cand < orow[j] ? cand : orow[j];
          }
        } else {
          for (int j = 0; j < m; ++j) {
            if (brow[j] >= kInf) continue;
            const auto cand = aik + brow[j];
            orow[j] = cand < orow[j] ? cand : orow[j];
          }
        }
      }
    }
  }
  return out;
}

namespace {

// Packed witness keys. With S = 2^kWitnessKeyShift and D = kWitnessKeyMaxAbsD,
// a finite left entry packs to d_a*S + (w_a + 1) in [-D*S, D*S + S - 1] and a
// finite right entry contributes d_b*S in [-D*S, D*S], so every finite sum
// lies in [-2D*S, 2D*S + S - 1], below kFiniteKeyLimit = (2D + 1)*S. Since
// 0 <= w + 1 < S, integer order on keys is the lexicographic (d, w) order,
// and the sum carries the left witness, as WitnessMinPlus::mul does.
// Infinite entries (d >= kInf, any witness) pack to kInfKey on either side.
// A sum involving one is at least kInfKey - D*S >= kFiniteKeyLimit, because
// D is chosen so that (3D + 1)*S <= kInfKey, and at most 2*kInfKey, which
// fits in int64. The accumulator starts at kInfKey, so an output whose every
// term involves an infinity unpacks to the semiring zero {kInf, -1} — what
// multiply() yields, since mul annihilates such terms. In-domain finite sums
// stay far below kInf, so no finite term saturates either.
constexpr std::int64_t kKeyScale = std::int64_t{1} << kWitnessKeyShift;
constexpr std::int64_t kInfKey = std::numeric_limits<std::int64_t>::max() / 2;
constexpr std::int64_t kFiniteKeyLimit =
    (2 * kWitnessKeyMaxAbsD + 1) * kKeyScale;
static_assert((3 * kWitnessKeyMaxAbsD + 1) * kKeyScale <= kInfKey);
static_assert(kWitnessKeyMaxAbsD < WitnessMinPlus::kInf / 2);

// Register tile: kWitnessRows output rows by kWitnessTile output columns.
constexpr int kWitnessRows = 2;
constexpr int kWitnessTile = 4;

// The packed-key domain of a finite entry (d < kInf); infinite entries
// always pack.
[[nodiscard]] bool packs_distance(std::int64_t d) {
  return d >= -kWitnessKeyMaxAbsD && d <= kWitnessKeyMaxAbsD;
}
[[nodiscard]] bool packs_witness(std::int64_t w) {
  return w >= -1 && w <= kWitnessKeyMaxWitness;
}

}  // namespace

bool in_witness_key_domain(const Matrix<WDist>& a, const Matrix<WDist>& b) {
  constexpr std::int64_t kInf = WitnessMinPlus::kInf;
  for (int i = 0; i < a.rows(); ++i)
    for (const WDist& e : std::span<const WDist>(a.row(i), a.cols()))
      if (e.d < kInf && !(packs_distance(e.d) && packs_witness(e.w)))
        return false;
  for (int i = 0; i < b.rows(); ++i)
    for (const WDist& e : std::span<const WDist>(b.row(i), b.cols()))
      if (e.d < kInf && !packs_distance(e.d)) return false;
  return true;
}

CCA_ISA_CLONES
Matrix<WDist> multiply_witness_minplus(const Matrix<WDist>& a,
                                       const Matrix<WDist>& b) {
  CCA_EXPECTS(a.cols() == b.rows());
  constexpr std::int64_t kInf = WitnessMinPlus::kInf;
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();

  // Packing checks the domain entry by entry (the same test as
  // in_witness_key_domain) and hands the first miss to multiply().
  // A row after row, padded to whole row tiles with kInfKey rows whose
  // outputs are never stored.
  const std::size_t ks = static_cast<std::size_t>(k);
  const int row_tiles = (n + kWitnessRows - 1) / kWitnessRows;
  std::vector<std::int64_t> akey(
      static_cast<std::size_t>(row_tiles) * kWitnessRows * ks, kInfKey);
  for (int i = 0; i < n; ++i) {
    const WDist* arow = a.row(i);
    std::int64_t* krow = akey.data() + static_cast<std::size_t>(i) * ks;
    for (int r = 0; r < k; ++r) {
      const WDist e = arow[r];
      if (e.d >= kInf) continue;
      if (!packs_distance(e.d) || !packs_witness(e.w))
        return multiply(WitnessMinPlus{}, a, b);
      krow[r] = e.d * kKeyScale + (e.w + 1);
    }
  }

  // B in column panels of kWitnessTile: panel p holds columns
  // [p*kWitnessTile, (p+1)*kWitnessTile) row after row, so the inner loop
  // streams it. Lanes past column m stay kInfKey and are never stored.
  const int panels = (m + kWitnessTile - 1) / kWitnessTile;
  const std::size_t panel_size = ks * kWitnessTile;
  std::vector<std::int64_t> bkey(static_cast<std::size_t>(panels) *
                                     panel_size,
                                 kInfKey);
  for (int r = 0; r < k; ++r) {
    const WDist* brow = b.row(r);
    for (int j = 0; j < m; ++j) {
      const std::int64_t d = brow[j].d;
      if (d >= kInf) continue;
      if (!packs_distance(d)) return multiply(WitnessMinPlus{}, a, b);
      bkey[static_cast<std::size_t>(j / kWitnessTile) * panel_size +
           static_cast<std::size_t>(r) * kWitnessTile + j % kWitnessTile] =
          d * kKeyScale;
    }
  }

  Matrix<WDist> out(n, m, WitnessMinPlus{}.zero());
  for (int i0 = 0; i0 < n; i0 += kWitnessRows) {
    const std::int64_t* krows = akey.data() + static_cast<std::size_t>(i0) * ks;
    for (int p = 0; p < panels; ++p) {
      const std::int64_t* panel =
          bkey.data() + static_cast<std::size_t>(p) * panel_size;
      std::int64_t acc[kWitnessRows][kWitnessTile];
      for (auto& row : acc)
        for (auto& x : row) x = kInfKey;
      for (int r = 0; r < k; ++r) {
        const std::int64_t* lane = panel + static_cast<std::size_t>(r) *
                                               kWitnessTile;
        for (int q = 0; q < kWitnessRows; ++q) {
          const std::int64_t ka = krows[static_cast<std::size_t>(q) * ks + r];
          for (int t = 0; t < kWitnessTile; ++t) {
            const std::int64_t cand = ka + lane[t];
            acc[q][t] = cand < acc[q][t] ? cand : acc[q][t];
          }
        }
      }
      const int j0 = p * kWitnessTile;
      for (int q = 0; q < kWitnessRows && i0 + q < n; ++q) {
        WDist* orow = out.row(i0 + q);
        for (int t = 0; t < kWitnessTile && j0 + t < m; ++t)
          if (acc[q][t] < kFiniteKeyLimit)
            orow[j0 + t] = {acc[q][t] >> kWitnessKeyShift,
                            (acc[q][t] & (kKeyScale - 1)) - 1};
      }
    }
  }
  return out;
}

}  // namespace cca
