// AVX2 kernel tier. Interleaved std::complex<double> layout, two complex
// amplitudes per 256-bit vector, split-accumulate complex multiply
// (mul / mul / addsub — no FMA), compiled with -mavx2 -ffp-contract=off
// via per-TU CMake source properties. Nothing else in the binary is built
// with AVX2 flags; this table is only reachable after the CPUID check in
// kernel_dispatch.cpp, so the binary stays runnable on pre-AVX2 hosts.
//
// Determinism: every vector recipe below performs, per amplitude, exactly
// the operation sequence of the canonical scalar bodies in
// kernels_scalar.inl (see the contract comment there). The same bodies
// are instantiated in this TU (namespace avx2_fb) and used verbatim for
// the cases vectors cannot reach: stride-1 pair layouts (gate bit 0),
// chunk-edge remainders, and short runs.

#include "sv/kernel_dispatch.hpp"

#if defined(HISIM_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "common/bits.hpp"
#include "common/parallel.hpp"

#define HISIM_KERNEL_NS avx2_fb
#include "sv/kernels_scalar.inl"
#undef HISIM_KERNEL_NS

namespace hisim::sv {
namespace {

namespace fb = avx2_fb;

/// Element-wise complex constant, duplicated real/imag parts.
struct CVec {
  __m256d re, im;
};

CVec cvec_broadcast(cplx c) {
  return {_mm256_set1_pd(c.real()), _mm256_set1_pd(c.imag())};
}

/// Lanes 0-1 carry `lo`, lanes 2-3 carry `hi` (one constant per complex).
CVec cvec_lanes(cplx lo, cplx hi) {
  return {_mm256_setr_pd(lo.real(), lo.real(), hi.real(), hi.real()),
          _mm256_setr_pd(lo.imag(), lo.imag(), hi.imag(), hi.imag())};
}

/// (a0, a1) * c element-wise for interleaved complexes:
///   even lane: re*c.re - im*c.im, odd lane: im*c.re + re*c.im
/// — exactly the canonical cmul() recipe, via addsub.
__m256d cmul_vc(__m256d v, const CVec& c) {
  const __m256d sw = _mm256_permute_pd(v, 0x5);  // (im, re, im, re)
  return _mm256_addsub_pd(_mm256_mul_pd(v, c.re), _mm256_mul_pd(sw, c.im));
}

double* amp(cplx* a, Index i) { return reinterpret_cast<double*>(a + i); }

/// One 2x2 column-mix step on two complexes per stream. Forced inline:
/// the short-run control paths below execute it once per enumerated run,
/// where a call boundary would cost as much as the arithmetic.
[[gnu::always_inline]] inline void pair_vec_step(double* p0, double* p1,
                                                 const CVec& c00,
                                                 const CVec& c01,
                                                 const CVec& c10,
                                                 const CVec& c11) {
  const __m256d v0 = _mm256_loadu_pd(p0);
  const __m256d v1 = _mm256_loadu_pd(p1);
  _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vc(v0, c00), cmul_vc(v1, c01)));
  _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vc(v0, c10), cmul_vc(v1, c11)));
}

// ---- dense 2x2 -------------------------------------------------------------

/// The shared dense-pair stream: amplitudes [p0, p0 + 2*count) mix with
/// [p1, p1 + 2*count) through the broadcast 2x2 columns. Unrolled twice —
/// the four output vectors per iteration are independent chains, so the
/// multiplies overlap instead of serializing on the loop counter.
void dense_pair_stream(double* p0, double* p1, Index count, const CVec& c00,
                       const CVec& c01, const CVec& c10, const CVec& c11) {
  Index done = 0;
  for (; done + 4 <= count; done += 4, p0 += 8, p1 += 8) {
    const __m256d v0a = _mm256_loadu_pd(p0);
    const __m256d v1a = _mm256_loadu_pd(p1);
    const __m256d v0b = _mm256_loadu_pd(p0 + 4);
    const __m256d v1b = _mm256_loadu_pd(p1 + 4);
    _mm256_storeu_pd(p0, _mm256_add_pd(cmul_vc(v0a, c00), cmul_vc(v1a, c01)));
    _mm256_storeu_pd(p1, _mm256_add_pd(cmul_vc(v0a, c10), cmul_vc(v1a, c11)));
    _mm256_storeu_pd(p0 + 4,
                     _mm256_add_pd(cmul_vc(v0b, c00), cmul_vc(v1b, c01)));
    _mm256_storeu_pd(p1 + 4,
                     _mm256_add_pd(cmul_vc(v0b, c10), cmul_vc(v1b, c11)));
  }
  for (; done + 2 <= count; done += 2, p0 += 4, p1 += 4)
    pair_vec_step(p0, p1, c00, c01, c10, c11);
}

void a2_apply_1q(StateView s, Qubit q, const cplx* u) {
  const Index half = s.size() >> 1;
  const Index qb = Index{1} << q;
  cplx* a = s.data();
  if (q == 0) {
    // Pairs are adjacent: one vector holds a full (a0, a1) pair. Split it
    // into (a0, a0) / (a1, a1) and apply per-lane column constants.
    const CVec cl = cvec_lanes(u[0], u[2]);  // (u00, u10)
    const CVec cr = cvec_lanes(u[1], u[3]);  // (u01, u11)
    parallel::for_range(0, half, [&](Index lo, Index hi) {
      Index m = lo;
      for (; m + 2 <= hi; m += 2) {
        double* p = amp(a, m << 1);
        const __m256d va = _mm256_loadu_pd(p);
        const __m256d vb = _mm256_loadu_pd(p + 4);
        const __m256d xa = _mm256_permute2f128_pd(va, va, 0x00);  // (a0, a0)
        const __m256d ya = _mm256_permute2f128_pd(va, va, 0x11);  // (a1, a1)
        const __m256d xb = _mm256_permute2f128_pd(vb, vb, 0x00);
        const __m256d yb = _mm256_permute2f128_pd(vb, vb, 0x11);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vc(xa, cl), cmul_vc(ya, cr)));
        _mm256_storeu_pd(p + 4,
                         _mm256_add_pd(cmul_vc(xb, cl), cmul_vc(yb, cr)));
      }
      for (; m < hi; ++m) {
        double* p = amp(a, m << 1);
        const __m256d v = _mm256_loadu_pd(p);
        const __m256d x = _mm256_permute2f128_pd(v, v, 0x00);
        const __m256d y = _mm256_permute2f128_pd(v, v, 0x11);
        _mm256_storeu_pd(p, _mm256_add_pd(cmul_vc(x, cl), cmul_vc(y, cr)));
      }
    });
    return;
  }
  // q >= 1: the i0 side of a run of 2^q consecutive pairs is contiguous
  // (and so is the i1 side, qb amplitudes up) — resolve the indices once
  // per run, then walk pointers.
  const CVec c00 = cvec_broadcast(u[0]), c01 = cvec_broadcast(u[1]);
  const CVec c10 = cvec_broadcast(u[2]), c11 = cvec_broadcast(u[3]);
  parallel::for_range(0, half, [&](Index lo, Index hi) {
    Index m = lo;
    while (m < hi) {
      const Index j = m & (qb - 1);
      const Index i0 = ((m >> q) << (q + 1)) | j;
      const Index count = std::min(hi, m - j + qb) - m;
      dense_pair_stream(amp(a, i0), amp(a, i0 | qb), count, c00, c01, c10,
                        c11);
      if (count & 1) {
        const Index last = i0 + (count - 1);
        fb::pair_update(a, last, last | qb, u);
      }
      m += count;
    }
  });
}

// ---- diagonal 2x2 ----------------------------------------------------------

/// Multiplies amplitudes [i, end) by the broadcast constant `cd`;
/// per-amplitude arithmetic identical to the scalar tier.
void scale_run(cplx* a, Index i, Index end, const CVec& cd, cplx d) {
  double* p = amp(a, i);
  for (; i + 8 <= end; i += 8, p += 16) {
    _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), cd));
    _mm256_storeu_pd(p + 4, cmul_vc(_mm256_loadu_pd(p + 4), cd));
    _mm256_storeu_pd(p + 8, cmul_vc(_mm256_loadu_pd(p + 8), cd));
    _mm256_storeu_pd(p + 12, cmul_vc(_mm256_loadu_pd(p + 12), cd));
  }
  for (; i + 2 <= end; i += 2, p += 4)
    _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), cd));
  for (; i < end; ++i) a[i] = fb::cmul(a[i], d);
}

void a2_apply_1q_diag(StateView s, Qubit q, cplx d0, cplx d1) {
  const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
  if (skip0 && skip1) return;
  const Index qb = Index{1} << q;
  cplx* a = s.data();
  if (q == 0) {
    // Alternating d0/d1 per amplitude: one lane-mixed constant, with an
    // exact blend of the original lanes wherever the phase is exactly 1
    // (a skip in the scalar tier must stay a bitwise no-op here too).
    const CVec cd = cvec_lanes(d0, d1);
    const auto run = [&]<int KEEP>() {
      parallel::for_range(0, s.size() >> 1, [&](Index lo, Index hi) {
        const auto step = [&cd](double* p) {
          const __m256d v = _mm256_loadu_pd(p);
          __m256d o = cmul_vc(v, cd);
          if constexpr (KEEP != 0) o = _mm256_blend_pd(o, v, KEEP);
          _mm256_storeu_pd(p, o);
        };
        Index m = lo;
        for (; m + 2 <= hi; m += 2) {
          step(amp(a, m << 1));
          step(amp(a, (m + 1) << 1));
        }
        for (; m < hi; ++m) step(amp(a, m << 1));
      });
    };
    if (skip0)
      run.template operator()<0b0011>();
    else if (skip1)
      run.template operator()<0b1100>();
    else
      run.template operator()<0>();
    return;
  }
  // q >= 1: runs of 2^q amplitudes share one phase.
  const CVec c0 = cvec_broadcast(d0), c1 = cvec_broadcast(d1);
  parallel::for_range(0, s.size(), [&](Index lo, Index hi) {
    Index i = lo;
    while (i < hi) {
      const Index run_end = std::min(hi, (i | (qb - 1)) + 1);
      const bool one = (i & qb) != 0;
      if (one ? skip1 : skip0) {
        i = run_end;
        continue;
      }
      scale_run(a, i, run_end, one ? c1 : c0, one ? d1 : d0);
      i = run_end;
    }
  });
}

// ---- controlled 2x2 --------------------------------------------------------

void a2_apply_ctrl_1q(StateView s, std::span<const Qubit> sorted_bits,
                      Index cmask, Qubit target, const cplx* u) {
  const Qubit minb = sorted_bits.front();
  if (minb == 0) {  // enumerated bases have stride 2 — no contiguous runs
    fb::apply_ctrl_1q(s, sorted_bits, cmask, target, u);
    return;
  }
  const Index count = s.size() >> sorted_bits.size();
  const Index L = Index{1} << minb;  // contiguous pair-bases per run
  const Index tb = Index{1} << target;
  cplx* a = s.data();
  const CVec c00 = cvec_broadcast(u[0]), c01 = cvec_broadcast(u[1]);
  const CVec c10 = cvec_broadcast(u[2]), c11 = cvec_broadcast(u[3]);
  parallel::for_range(0, count, [&](Index lo, Index hi) {
    Index m = lo;
    if (L == 2) {
      // minb == 1: every aligned run is exactly one vector per stream —
      // the general run loop's bookkeeping would cost as much as the
      // arithmetic, so step pairs of enumerands directly.
      if (m & 1) {
        const Index i0 = fb::spread(m, sorted_bits) | cmask;
        fb::pair_update(a, i0, i0 | tb, u);
        ++m;
      }
      for (; m + 2 <= hi; m += 2) {
        const Index i0 = fb::spread(m, sorted_bits) | cmask;
        pair_vec_step(amp(a, i0), amp(a, i0 | tb), c00, c01, c10, c11);
      }
      if (m < hi) {
        const Index i0 = fb::spread(m, sorted_bits) | cmask;
        fb::pair_update(a, i0, i0 | tb, u);
      }
      return;
    }
    while (m < hi) {
      // Bases within a run of L enumerands are contiguous (the low minb
      // bits of m pass through spread() unshifted): resolve once, walk.
      const Index j = m & (L - 1);
      const Index i0 = fb::spread(m, sorted_bits) | cmask;
      const Index n_run = std::min(hi, m - j + L) - m;
      dense_pair_stream(amp(a, i0), amp(a, i0 | tb), n_run, c00, c01, c10,
                        c11);
      if (n_run & 1) {
        const Index last = i0 + (n_run - 1);
        fb::pair_update(a, last, last | tb, u);
      }
      m += n_run;
    }
  });
}

void a2_apply_ctrl_diag(StateView s, std::span<const Qubit> sorted_bits,
                        Index cmask, Qubit target, cplx d0, cplx d1) {
  const bool skip0 = fb::is_one(d0), skip1 = fb::is_one(d1);
  if (skip0 && skip1) return;
  const Qubit minb = sorted_bits.front();
  if (minb == 0) {
    fb::apply_ctrl_diag(s, sorted_bits, cmask, target, d0, d1);
    return;
  }
  const Index count = s.size() >> sorted_bits.size();
  const Index L = Index{1} << minb;
  const Index tb = Index{1} << target;
  cplx* a = s.data();
  const CVec c0 = cvec_broadcast(d0), c1 = cvec_broadcast(d1);
  parallel::for_range(0, count, [&](Index lo, Index hi) {
    Index m = lo;
    if (L == 2) {
      // minb == 1: one vector per stream per aligned run (see
      // a2_apply_ctrl_1q) — step enumerand pairs directly.
      const auto scalar_step = [&](Index mm) {
        const Index i0 = fb::spread(mm, sorted_bits) | cmask;
        if (!skip0) a[i0] = fb::cmul(a[i0], d0);
        if (!skip1) a[i0 | tb] = fb::cmul(a[i0 | tb], d1);
      };
      if (m & 1) scalar_step(m++);
      for (; m + 2 <= hi; m += 2) {
        const Index i0 = fb::spread(m, sorted_bits) | cmask;
        if (!skip0) {
          double* p = amp(a, i0);
          _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), c0));
        }
        if (!skip1) {
          double* p = amp(a, i0 | tb);
          _mm256_storeu_pd(p, cmul_vc(_mm256_loadu_pd(p), c1));
        }
      }
      if (m < hi) scalar_step(m);
      return;
    }
    while (m < hi) {
      // Same run contiguity as a2_apply_ctrl_1q: both the d0 stream at i0
      // and the d1 stream at i0|tb are dense over one run of enumerands.
      const Index j = m & (L - 1);
      const Index i0 = fb::spread(m, sorted_bits) | cmask;
      const Index n_run = std::min(hi, m - j + L) - m;
      if (!skip0) scale_run(a, i0, i0 + n_run, c0, d0);
      if (!skip1) scale_run(a, i0 | tb, (i0 | tb) + n_run, c1, d1);
      m += n_run;
    }
  });
}

// ---- diagonal 4x4 ----------------------------------------------------------

void a2_apply_2q_diag(StateView s, Qubit qa, Qubit qb, const cplx* d) {
  const Qubit lo_q = std::min(qa, qb), hi_q = std::max(qa, qb);
  if (lo_q == 0) {  // quad streams are stride-2 — no contiguous runs
    fb::apply_2q_diag(s, qa, qb, d);
    return;
  }
  bool skip[4];
  CVec cd[4];
  __m256d keep[4];  // all-ones lanes where the phase is exactly 1.0
  for (int t = 0; t < 4; ++t) {
    skip[t] = fb::is_one(d[t]);
    cd[t] = cvec_broadcast(d[t]);
    keep[t] = _mm256_castsi256_pd(_mm256_set1_epi64x(skip[t] ? -1 : 0));
  }
  if (skip[0] && skip[1] && skip[2] && skip[3]) return;
  const Index ba = Index{1} << qa, bb = Index{1} << qb;
  const Index L = Index{1} << lo_q;  // contiguous quad-bases per run
  cplx* a = s.data();
  // One vector of a stream: multiplied, then the original lanes blended
  // back where the phase is exactly 1.0 (a skip in the scalar tier must
  // stay a bitwise no-op here too).
  const auto step = [&](double* p, int t) {
    const __m256d v = _mm256_loadu_pd(p);
    _mm256_storeu_pd(p, _mm256_blendv_pd(cmul_vc(v, cd[t]), v, keep[t]));
  };
  parallel::for_range(0, s.size() >> 2, [&](Index lo, Index hi) {
    Index m = lo;
    while (m < hi) {
      // Same run structure as a2_apply_2q: the four streams of a run of
      // quad bases are each contiguous, and each carries one phase.
      const Index j = m & (L - 1);
      const Index base = bits::insert_zero(bits::insert_zero(m, lo_q), hi_q);
      const Index n_run = std::min(hi, m - j + L) - m;
      double* p0 = amp(a, base);
      double* p1 = amp(a, base | ba);
      double* p2 = amp(a, base | bb);
      double* p3 = amp(a, base | ba | bb);
      Index done = 0;
      for (; done + 2 <= n_run;
           done += 2, p0 += 4, p1 += 4, p2 += 4, p3 += 4) {
        step(p0, 0);
        step(p1, 1);
        step(p2, 2);
        step(p3, 3);
      }
      if (done < n_run) {
        const Index i = base + done;
        const Index idx[4] = {i, i | ba, i | bb, i | ba | bb};
        for (int t = 0; t < 4; ++t)
          if (!skip[t]) a[idx[t]] = fb::cmul(a[idx[t]], d[t]);
      }
      m += n_run;
    }
  });
}

// ---- dense 4x4 -------------------------------------------------------------

void a2_apply_2q(StateView s, Qubit qa, Qubit qb, const cplx* u) {
  const Qubit lo_q = std::min(qa, qb), hi_q = std::max(qa, qb);
  if (lo_q == 0) {  // quad streams are stride-2 — no contiguous runs
    fb::apply_2q(s, qa, qb, u);
    return;
  }
  const Index ba = Index{1} << qa, bb = Index{1} << qb;
  const Index L = Index{1} << lo_q;  // contiguous quad-bases per run
  cplx* a = s.data();
  CVec c[16];
  for (int t = 0; t < 16; ++t) c[t] = cvec_broadcast(u[t]);
  parallel::for_range(0, s.size() >> 2, [&](Index lo, Index hi) {
    Index m = lo;
    while (m < hi) {
      // Quad bases within a run of L enumerands are contiguous (the low
      // lo_q bits pass through both insert_zero calls): resolve once,
      // walk four dense streams.
      const Index j = m & (L - 1);
      const Index base = bits::insert_zero(bits::insert_zero(m, lo_q), hi_q);
      const Index n_run = std::min(hi, m - j + L) - m;
      double* p0 = amp(a, base);
      double* p1 = amp(a, base | ba);
      double* p2 = amp(a, base | bb);
      double* p3 = amp(a, base | ba | bb);
      Index done = 0;
      for (; done + 2 <= n_run;
           done += 2, p0 += 4, p1 += 4, p2 += 4, p3 += 4) {
        const __m256d v0 = _mm256_loadu_pd(p0);
        const __m256d v1 = _mm256_loadu_pd(p1);
        const __m256d v2 = _mm256_loadu_pd(p2);
        const __m256d v3 = _mm256_loadu_pd(p3);
        // Pairwise accumulation in column order — matches quad_update().
        _mm256_storeu_pd(
            p0, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[0]), cmul_vc(v1, c[1])),
                    _mm256_add_pd(cmul_vc(v2, c[2]), cmul_vc(v3, c[3]))));
        _mm256_storeu_pd(
            p1, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[4]), cmul_vc(v1, c[5])),
                    _mm256_add_pd(cmul_vc(v2, c[6]), cmul_vc(v3, c[7]))));
        _mm256_storeu_pd(
            p2, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[8]), cmul_vc(v1, c[9])),
                    _mm256_add_pd(cmul_vc(v2, c[10]), cmul_vc(v3, c[11]))));
        _mm256_storeu_pd(
            p3, _mm256_add_pd(
                    _mm256_add_pd(cmul_vc(v0, c[12]), cmul_vc(v1, c[13])),
                    _mm256_add_pd(cmul_vc(v2, c[14]), cmul_vc(v3, c[15]))));
      }
      if (done < n_run) {
        const Index b = base + done;
        fb::quad_update(a, b, b | ba, b | bb, b | ba | bb, u);
      }
      m += n_run;
    }
  });
}

}  // namespace

const KernelOps* avx2_kernel_ops_or_null() {
  static const KernelOps ops = {
      KernelTier::Simd,  "simd",           &a2_apply_1q,
      &a2_apply_1q_diag, &a2_apply_ctrl_1q, &a2_apply_ctrl_diag,
      &a2_apply_2q,      &a2_apply_2q_diag,
  };
  return &ops;
}

}  // namespace hisim::sv

#else  // !HISIM_KERNELS_AVX2

namespace hisim::sv {

// Built without the AVX2 translation-unit flags (non-x86 target or the
// compiler lacks -mavx2): the simd tier does not exist in this binary.
const KernelOps* avx2_kernel_ops_or_null() { return nullptr; }

}  // namespace hisim::sv

#endif
