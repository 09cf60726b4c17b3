// Kernel-tier dispatch contract (sv/kernel_dispatch.hpp): every GateKind
// produces the same state on every available tier — bit-identical for
// permutation and diagonal kinds (pure index moves / skip-or-multiply
// phase sweeps), within 1e-12 for dense kernels — and the tier threads
// through FlatSimulator and all six Engine targets. Tier resolution
// itself (parse, names, forced-simd failure) is pinned here too.

#include "sv/kernel_dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "circuit/fusion.hpp"
#include "circuit/gate.hpp"
#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "hisvsim/engine.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

void expect_bit_identical(const sv::StateVector& a, const sv::StateVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (Index i = 0; i < a.size(); ++i) {
    // memcmp-strength equality: catches even -0.0 vs +0.0 sign flips,
    // which the skip-exact-1.0 diagonal contract is specifically about.
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(cplx)), 0)
        << what << " amp " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// One concrete gate per GateKind (plus dense/Kraus Unitary forms), on
/// operand layouts that exercise both the vector fast paths (bits >= 1)
/// and the qubit-0 / low-bit fallbacks.
std::vector<Gate> every_kind_gates() {
  Matrix u2(2, 2);
  u2(0, 0) = {0.36, 0.48};
  u2(0, 1) = {0.8, 0.0};
  u2(1, 0) = {-0.8, 0.0};
  u2(1, 1) = {0.36, -0.48};
  Matrix k2 = u2;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 2; ++c) k2(r, c) *= 0.9;  // non-unitary
  const Matrix u4 =
      Gate::rxx(0, 1, 0.37).matrix() * Gate::cp(0, 1, -0.81).matrix();
  std::vector<Gate> gates = {
      Gate::i(2),
      Gate::x(3),          Gate::x(0),
      Gate::y(2),          Gate::y(0),
      Gate::z(4),          Gate::z(0),
      Gate::h(3),          Gate::h(0),
      Gate::s(2),          Gate::sdg(3),
      Gate::t(1),          Gate::tdg(0),
      Gate::sx(2),
      Gate::rx(3, 0.7),    Gate::ry(2, -0.4),
      Gate::rz(1, 1.1),    Gate::rz(0, 1.1),
      Gate::p(2, 0.9),
      Gate::u2(3, 0.3, -0.5),
      Gate::u3(1, 0.4, 0.2, -0.7),
      Gate::cx(1, 4),      Gate::cx(0, 3),    Gate::cx(4, 0),
      Gate::cy(2, 5),      Gate::cy(0, 1),
      Gate::cz(1, 4),      Gate::cz(0, 5),
      Gate::ch(2, 4),      Gate::ch(0, 3),
      Gate::crx(1, 3, 0.6),
      Gate::cry(2, 5, -0.8), Gate::cry(0, 4, 0.3),
      Gate::crz(1, 4, 0.5),
      Gate::cp(2, 5, 0.7), Gate::cp(0, 3, -0.2),
      Gate::cu3(1, 4, 0.3, -0.6, 0.9),
      Gate::swap(1, 4),    Gate::swap(0, 3),
      Gate::rzz(1, 4, 0.8), Gate::rzz(0, 3, -0.5),
      Gate::rxx(1, 4, 0.6), Gate::rxx(0, 3, 0.4),
      Gate::ccx(1, 3, 5),  Gate::ccx(0, 2, 4),
      Gate::cswap(2, 4, 5), Gate::cswap(0, 1, 3),
      Gate::mcx({0, 1, 2, 3, 4}),
      Gate::unitary({2, 4}, u4),
      Gate::kraus({3}, k2),
      Gate::noise_slot(2, 0),
  };
  return gates;
}

bool permutation_or_diagonal(const Gate& g) {
  switch (g.kind) {
    case GateKind::X:
    case GateKind::CX:
    case GateKind::CCX:
    case GateKind::MCX:
    case GateKind::SWAP:
    case GateKind::CSWAP:
      return true;
    default:
      return g.is_diagonal();
  }
}

TEST(KernelDispatch, EveryGateKindEveryTierMatchesScalar) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const sv::KernelOps& scalar = sv::kernel_ops(sv::KernelTier::Scalar);
  const sv::KernelOps& simd = sv::kernel_ops(sv::KernelTier::Simd);
  const unsigned n = 6;
  for (const Gate& g : every_kind_gates()) {
    sv::StateVector a = testutil::random_state(n, 0xabcd);
    sv::StateVector b = a;
    sv::apply_gate(a, g, scalar);
    sv::apply_gate(b, g, simd);
    if (permutation_or_diagonal(g)) {
      expect_bit_identical(a, b, g.to_string());
    } else {
      EXPECT_LT(a.max_abs_diff(b), 1e-12) << g.to_string();
    }
  }
}

// The compact 2-qubit diagonal kernel on every operand layout (stride-1
// fallback, constant-phase runs of 2 and wider, either operand order) and
// phase pattern (exact-1.0 entries must stay bitwise no-ops), plus the
// fused CX·RZ·CX block that reaches it through resolve_block.
TEST(KernelDispatch, TwoQubitDiagonalMatchesScalar) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const sv::KernelOps& scalar = sv::kernel_ops(sv::KernelTier::Scalar);
  const sv::KernelOps& simd = sv::kernel_ops(sv::KernelTier::Simd);
  const cplx e(0.6, -0.8), f(-0.28, 0.96);
  const std::vector<std::vector<cplx>> phases = {
      {e, f, std::conj(f), std::conj(e)},
      {1.0, e, 1.0, f},
      {e, 1.0, 1.0, 1.0},
      {1.0, 1.0, 1.0, 1.0}};
  const unsigned n = 7;
  for (const auto& [qa, qb] : std::vector<std::pair<Qubit, Qubit>>{
           {0, 3}, {3, 0}, {1, 2}, {2, 6}, {6, 1}, {4, 5}}) {
    for (const std::vector<cplx>& d : phases) {
      sv::StateVector a = testutil::random_state(n, 0xd1a9);
      sv::StateVector b = a;
      scalar.apply_2q_diag(a, qa, qb, d.data());
      simd.apply_2q_diag(b, qa, qb, d.data());
      expect_bit_identical(a, b,
                           "qa " + std::to_string(qa) + " qb " +
                               std::to_string(qb));
    }
    // CX·RZ·CX multiplies out to an exactly diagonal 4x4: it must take
    // the diagonal kernel and match the gate-by-gate sweep.
    const std::vector<Qubit> support = {std::min(qa, qb), std::max(qa, qb)};
    Matrix u = Matrix::identity(4);
    const std::vector<Gate> block = {Gate::cx(qa, qb), Gate::rz(qb, 0.7),
                                     Gate::cx(qa, qb)};
    for (const Gate& g : block) u = embed_unitary(g, support) * u;
    const sv::KernelCall call = sv::resolve_block(support, u);
    EXPECT_EQ(call.kind, sv::KernelCall::Kind::Diag2q);
    sv::StateVector fused = testutil::random_state(n, 0xf00d);
    sv::StateVector ref = fused;
    sv::apply_call(fused, call, simd);
    for (const Gate& g : block) sv::apply_gate(ref, g, scalar);
    EXPECT_LT(fused.max_abs_diff(ref), 1e-14);
  }
}

TEST(KernelDispatch, RandomCircuitDifferential) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const sv::KernelOps& scalar = sv::kernel_ops(sv::KernelTier::Scalar);
  const sv::KernelOps& simd = sv::kernel_ops(sv::KernelTier::Simd);
  for (std::uint64_t seed : {0x1ull, 0x2ull, 0x3ull, 0x5eedull}) {
    const Circuit c = testutil::random_circuit(6, 120, seed);
    sv::StateVector a(6), b(6);
    sv::FlatSimulator().run(c, a, &scalar);
    sv::FlatSimulator().run(c, b, &simd);
    EXPECT_LT(a.max_abs_diff(b), 1e-12) << "seed " << seed;
  }
}

TEST(KernelDispatch, EngineTargetsAgreeAcrossTiers) {
  if (!sv::simd_kernels_available())
    GTEST_SKIP() << "only the scalar tier exists in this build/CPU";
  const Circuit c = circuits::qft(9);
  for (Target t : {Target::Flat, Target::Hierarchical, Target::Multilevel,
                   Target::DistributedSerial, Target::DistributedThreaded,
                   Target::IqsBaseline}) {
    Options o;
    o.target = t;
    o.limit = 5;
    if (t == Target::Multilevel) o.level2_limit = 3;
    if (target_is_distributed(t)) o.process_qubits = 2;

    o.kernel_tier = sv::KernelTier::Scalar;
    const ExecutionPlan ps = Engine::compile(c, o);
    EXPECT_EQ(ps.kernel_tier(), sv::KernelTier::Scalar);
    const Result rs = ps.execute();
    EXPECT_EQ(rs.kernel, "scalar") << target_name(t);

    o.kernel_tier = sv::KernelTier::Simd;
    const ExecutionPlan pv = Engine::compile(c, o);
    EXPECT_EQ(pv.kernel_tier(), sv::KernelTier::Simd);
    const Result rv = pv.execute();
    EXPECT_EQ(rv.kernel, "simd") << target_name(t);

    EXPECT_LT(rs.state.max_abs_diff(rv.state), 1e-12) << target_name(t);
  }
}

TEST(KernelDispatch, AutoResolvesToConcreteTier) {
  const sv::KernelOps& ops = sv::kernel_ops(sv::KernelTier::Auto);
  EXPECT_NE(ops.tier, sv::KernelTier::Auto);
  // Auto must pick simd exactly when it exists (unless the HISIM_KERNEL
  // env override pinned scalar — in which case the name must say so).
  const std::string name = ops.name;
  EXPECT_TRUE(name == "scalar" || name == "simd");
  if (!sv::simd_kernels_available()) {
    EXPECT_EQ(name, "scalar");
  }
}

TEST(KernelDispatch, ParseAndNamesRoundTrip) {
  EXPECT_EQ(sv::parse_kernel_tier("auto"), sv::KernelTier::Auto);
  EXPECT_EQ(sv::parse_kernel_tier("scalar"), sv::KernelTier::Scalar);
  EXPECT_EQ(sv::parse_kernel_tier("simd"), sv::KernelTier::Simd);
  EXPECT_THROW(sv::parse_kernel_tier("bogus"), Error);
  EXPECT_THROW(sv::parse_kernel_tier(""), Error);
  EXPECT_THROW(sv::parse_kernel_tier("SIMD"), Error);
  for (sv::KernelTier t : {sv::KernelTier::Auto, sv::KernelTier::Scalar,
                           sv::KernelTier::Simd})
    EXPECT_EQ(sv::parse_kernel_tier(sv::kernel_tier_name(t)), t);
}

TEST(KernelDispatch, ForcedSimdFailsLoudlyWhenUnavailable) {
  if (sv::simd_kernels_available()) {
    EXPECT_EQ(sv::kernel_ops(sv::KernelTier::Simd).tier,
              sv::KernelTier::Simd);
  } else {
    EXPECT_THROW(sv::kernel_ops(sv::KernelTier::Simd), Error);
  }
  // The scalar tier exists unconditionally.
  EXPECT_EQ(sv::kernel_ops(sv::KernelTier::Scalar).tier,
            sv::KernelTier::Scalar);
  EXPECT_STREQ(sv::kernel_ops(sv::KernelTier::Scalar).name, "scalar");
}

}  // namespace
}  // namespace hisim
