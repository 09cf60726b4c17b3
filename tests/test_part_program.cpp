// The compiled hierarchical part program (sv/part_program.hpp): fused ops,
// in-place and gathered blocks, parallel outer iterations. Every result is
// checked bit for bit against the program's own other execution paths
// (worker counts, in place vs gathered, bound symbolic vs concrete, noisy
// replays) and within 1e-12 of the unfused flat reference.

#include "sv/part_program.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "dag/circuit_dag.hpp"
#include "hisvsim/engine.hpp"
#include "partition/multilevel.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/simulator.hpp"
#include "testing/random_circuits.hpp"

namespace hisim {
namespace {

void expect_bit_identical(const sv::StateVector& a, const sv::StateVector& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (Index i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(cplx)), 0)
        << what << " amp " << i << ": " << a[i] << " vs " << b[i];
}

/// Restores the default worker count when a test ends.
struct ThreadCount {
  explicit ThreadCount(unsigned n) { parallel::set_num_threads(n); }
  ~ThreadCount() { parallel::set_num_threads(0); }
};

partition::Partitioning partition_of(const Circuit& c, unsigned limit) {
  partition::PartitionOptions po;
  po.limit = limit;
  return partition::make_partition(dag::CircuitDag(c), po);
}

partition::TwoLevelPartitioning two_level_of(const Circuit& c, unsigned limit,
                                             unsigned level2) {
  partition::PartitionOptions po;
  po.limit = limit;
  return partition::partition_two_level(dag::CircuitDag(c), po, level2);
}

/// Runs `prog` from a fixed random state on `threads` workers.
sv::StateVector run_on(const sv::PartProgram& prog, const Circuit& c,
                       unsigned threads, std::span<const double> params = {}) {
  ThreadCount tc(threads);
  sv::StateVector s = testutil::random_state(c.num_qubits(), 5);
  (void)prog.run(c, s, sv::kernel_ops(), params);
  return s;
}

std::vector<Circuit> sample_circuits() {
  return {circuits::qft(12), circuits::qaoa(12, 2, 3),
          circuits::ising(12, 3, 2), testutil::random_circuit(12, 160, 9)};
}

// Outer iterations touch disjoint amplitudes: splitting them over
// workers (or fanning each kernel out instead) must not move a bit.
TEST(PartProgram, BitIdenticalAcrossWorkerCounts) {
  for (const Circuit& c : sample_circuits()) {
    // limit 6: many iterations per part (split across workers);
    // limit 11: two iterations (in order, kernels fan out).
    for (unsigned limit : {6u, 11u}) {
      const sv::PartProgram single =
          sv::PartProgram::compile(c, partition_of(c, limit));
      const sv::PartProgram two =
          sv::PartProgram::compile(c, two_level_of(c, limit, 4), 5);
      for (const sv::PartProgram* prog : {&single, &two}) {
        const sv::StateVector one = run_on(*prog, c, 1);
        for (unsigned threads : {2u, 4u})
          expect_bit_identical(one, run_on(*prog, c, threads),
                               c.name() + " limit " + std::to_string(limit) +
                                   " threads " + std::to_string(threads));
      }
    }
  }
}

// A block wide enough for the kernels to fan out themselves (2^15
// amplitudes, two iterations on four workers).
TEST(PartProgram, BitIdenticalWhenKernelsFanOut) {
  const Circuit c = circuits::qft(16);
  const sv::PartProgram prog =
      sv::PartProgram::compile(c, partition_of(c, 15));
  expect_bit_identical(run_on(prog, c, 1), run_on(prog, c, 4), "qft16");
}

// The same low-bit part, once in place and once gathered (padded with a
// high qubit no gate touches, which forces the gather path).
TEST(PartProgram, InPlaceMatchesGathered) {
  const Circuit c = testutil::random_circuit(5, 80, 21);
  Circuit wide(9, "wide");
  for (const Gate& g : c.gates()) wide.add(g);
  std::vector<std::size_t> gates(wide.num_gates());
  for (std::size_t i = 0; i < gates.size(); ++i) gates[i] = i;
  const std::vector<Qubit> low = {0, 1, 2, 3, 4};
  const std::vector<Qubit> padded = {0, 1, 2, 3, 4, 7};
  const sv::PartProgram in_place =
      sv::PartProgram::compile_part(wide, gates, low);
  const sv::PartProgram gathered =
      sv::PartProgram::compile_part(wide, gates, padded);
  ASSERT_TRUE(in_place.in_place(0));
  ASSERT_FALSE(gathered.in_place(0));
  for (unsigned threads : {1u, 4u}) {
    const sv::StateVector a = run_on(in_place, wide, threads);
    expect_bit_identical(a, run_on(gathered, wide, threads),
                         "threads " + std::to_string(threads));
    // In place moves no data into a block buffer, so it reports no
    // gather/scatter time; the modeled outer traffic is the same sweep.
    ThreadCount tc(threads);
    sv::StateVector s(9);
    const sv::HierarchicalStats st =
        in_place.run(wide, s, sv::kernel_ops());
    EXPECT_EQ(st.gather_seconds, 0.0);
    EXPECT_EQ(st.scatter_seconds, 0.0);
    EXPECT_EQ(st.outer_bytes_moved, 2 * s.bytes());
  }
}

// Fusion shrinks the op count; a whole-register part is one in-place
// block.
TEST(PartProgram, FusesIntoTwoQubitOps) {
  const Circuit c = circuits::qaoa(10, 2, 4);
  const sv::PartProgram prog =
      sv::PartProgram::compile(c, partition_of(c, 10));
  ASSERT_EQ(prog.num_parts(), 1u);
  EXPECT_TRUE(prog.in_place(0));
  EXPECT_LT(prog.num_ops(), c.num_gates() / 2);
}

// Symbolic gates are fused like concrete ones and bound at run: the
// bound program equals the program of the bound circuit, bit for bit.
TEST(PartProgram, BoundSymbolicEqualsRecompiledConcrete) {
  const auto inst = circuits::qaoa_instance(10, 2, 17);
  const ParamBinding binding = inst.uniform_binding(0.83, 0.41);
  const Circuit concrete = inst.circuit.bound(binding);
  const std::vector<double> values =
      resolve_binding(inst.circuit.param_names(), binding);
  for (unsigned limit : {4u, 7u, 10u}) {
    const std::string what = "limit " + std::to_string(limit);
    const partition::Partitioning parts = partition_of(inst.circuit, limit);
    expect_bit_identical(
        run_on(sv::PartProgram::compile(inst.circuit, parts), inst.circuit,
               2, values),
        run_on(sv::PartProgram::compile(concrete, parts), concrete, 2),
        what);
    const partition::TwoLevelPartitioning two =
        two_level_of(inst.circuit, limit, 3);
    expect_bit_identical(
        run_on(sv::PartProgram::compile(inst.circuit, two, 4), inst.circuit,
               2, values),
        run_on(sv::PartProgram::compile(concrete, two, 4), concrete, 2),
        what + " two-level");
  }
  // The same contract through the Engine on both hierarchical targets.
  for (Target t : {Target::Hierarchical, Target::Multilevel}) {
    Options o;
    o.target = t;
    o.limit = 6;
    o.level2_limit = 3;
    ExecOptions x;
    x.bindings = binding;
    expect_bit_identical(Engine::compile(inst.circuit, o).execute(x).state,
                         Engine::compile(concrete, o).execute().state,
                         target_name(t));
  }
}

// A trajectory's sampled operators bind into the noise-slot ops: a
// recorded seed replays bit-identically, and agrees with the flat target.
TEST(PartProgram, NoisyTrajectoryReplays) {
  const Circuit c = circuits::noise_calibration(8, 2);
  Options flat;
  flat.target = Target::Flat;
  flat.noise.after_all_gates(noise::Channel::depolarizing(0.05));
  flat.noise.after_gate(GateKind::H, noise::Channel::amplitude_damping(0.1));
  const ExecutionPlan ref = Engine::compile(c, flat);
  for (Target t : {Target::Hierarchical, Target::Multilevel}) {
    Options o = flat;
    o.target = t;
    o.limit = 5;
    o.level2_limit = 3;
    const ExecutionPlan plan = Engine::compile(c, o);
    for (std::uint64_t seed : {3u, 11u, 29u}) {
      const Result r1 = plan.execute_trajectory(seed);
      const Result r2 = plan.execute_trajectory(seed);
      expect_bit_identical(r1.state, r2.state, target_name(t));
      EXPECT_LT(r1.state.max_abs_diff(ref.execute_trajectory(seed).state),
                1e-12)
          << target_name(t) << " seed " << seed;
    }
  }
}

TEST(PartProgram, WithinToleranceOfFlat) {
  for (const Circuit& c : sample_circuits()) {
    const sv::StateVector flat = sv::FlatSimulator().simulate(c);
    for (unsigned limit : {4u, 7u, 12u}) {
      const std::string what = c.name() + " limit " + std::to_string(limit);
      sv::StateVector s1(c.num_qubits()), s2(c.num_qubits());
      (void)sv::PartProgram::compile(c, partition_of(c, limit))
          .run(c, s1, sv::kernel_ops());
      EXPECT_LT(s1.max_abs_diff(flat), 1e-12) << what;
      (void)sv::PartProgram::compile(c, two_level_of(c, limit, 3))
          .run(c, s2, sv::kernel_ops());
      EXPECT_LT(s2.max_abs_diff(flat), 1e-12) << what << " two-level";
    }
  }
}

}  // namespace
}  // namespace hisim
