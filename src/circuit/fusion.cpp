#include "circuit/fusion.hpp"

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/trace.hpp"

namespace hisim {

Matrix embed_unitary(const Gate& gate, const std::vector<Qubit>& support,
                     std::span<const double> bound) {
  HISIM_CHECK(std::is_sorted(support.begin(), support.end()));
  const unsigned w = static_cast<unsigned>(support.size());
  HISIM_CHECK_MSG(w <= 12, "embed_unitary limited to 12 qubits");
  // Position of each gate qubit within the support.
  std::vector<unsigned> pos(gate.arity());
  for (unsigned j = 0; j < gate.arity(); ++j) {
    const auto it = std::lower_bound(support.begin(), support.end(),
                                     gate.qubits[j]);
    HISIM_CHECK_MSG(it != support.end() && *it == gate.qubits[j],
                    "gate qubit not in support");
    pos[j] = static_cast<unsigned>(it - support.begin());
  }
  const Matrix u = gate.matrix(bound);
  const Index kdim = Index{1} << gate.arity();
  const Index dim_w = Index{1} << w;
  Matrix out(dim_w, dim_w);
  // For each assignment of the non-gate support qubits, copy u's block.
  Index gate_mask = 0;
  for (unsigned j = 0; j < gate.arity(); ++j) gate_mask |= Index{1} << pos[j];
  const Index rest_mask = ~gate_mask & (dim_w - 1);
  const Index rest_dim = dim_w >> gate.arity();
  for (Index m = 0; m < rest_dim; ++m) {
    const Index base = bits::deposit(m, rest_mask);
    for (Index r = 0; r < kdim; ++r) {
      Index row = base;
      for (unsigned j = 0; j < gate.arity(); ++j)
        if (bits::test(r, j)) row |= Index{1} << pos[j];
      for (Index cc = 0; cc < kdim; ++cc) {
        const cplx v = u(r, cc);
        if (v == cplx{}) continue;
        Index col = base;
        for (unsigned j = 0; j < gate.arity(); ++j)
          if (bits::test(cc, j)) col |= Index{1} << pos[j];
        out(row, col) = v;
      }
    }
  }
  return out;
}

namespace {

/// One open accumulation window: gate indices in program order plus the
/// union of their supports. Open runs always have pairwise-disjoint
/// supports, so emitting one while others stay open only reorders gates
/// that commute (they act on disjoint qubits).
struct Run {
  std::vector<std::size_t> gates;
  std::vector<Qubit> support;  // ascending; at most max_qubits entries
};

bool contains(const std::vector<Qubit>& support, Qubit q) {
  return std::find(support.begin(), support.end(), q) != support.end();
}

/// Emits every open run in first-gate order (the deterministic canonical
/// order; any order is equivalent because supports are disjoint) and
/// clears the list.
void flush_all(std::vector<FusionRun>& out, std::vector<Run>& runs) {
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.gates.front() < b.gates.front();
  });
  for (Run& r : runs) out.push_back({std::move(r.gates), std::move(r.support)});
  runs.clear();
}

/// Checked builds re-assert run disjointness each time the run list
/// changes; release builds compile the call away (see common/check.hpp).
void check_runs(const std::vector<Run>& runs, unsigned max_qubits) {
  if constexpr (checked_build) {
    std::vector<std::vector<Qubit>> supports;
    supports.reserve(runs.size());
    for (const Run& r : runs) supports.push_back(r.support);
    validate_fusion_supports(supports, max_qubits);
  }
}

}  // namespace

void validate_fusion_supports(std::span<const std::vector<Qubit>> supports,
                              unsigned max_qubits) {
  std::set<Qubit> all;
  std::size_t total = 0;
  for (std::size_t i = 0; i < supports.size(); ++i) {
    const std::vector<Qubit>& s = supports[i];
    HISIM_INVARIANT(!s.empty(), "fusion run " << i << " has empty support");
    HISIM_INVARIANT(std::is_sorted(s.begin(), s.end()) &&
                        std::adjacent_find(s.begin(), s.end()) == s.end(),
                    "fusion run " << i << " support not sorted/unique");
    HISIM_INVARIANT(s.size() <= max_qubits,
                    "fusion run " << i << " spans " << s.size()
                                  << " qubits, limit is " << max_qubits);
    total += s.size();
    all.insert(s.begin(), s.end());
  }
  HISIM_INVARIANT(all.size() == total,
                  "open fusion runs overlap: " << total << " support entries "
                                               << "but only " << all.size()
                                               << " distinct qubits — "
                                               << "disjoint-commute reordering "
                                               << "argument violated");
}

std::vector<FusionRun> fusion_runs(const Circuit& c,
                                   std::span<const std::size_t> gates,
                                   unsigned max_qubits,
                                   bool (*barrier)(const Gate&)) {
  std::vector<FusionRun> out;
  out.reserve(gates.size());
  std::vector<Run> runs;
  std::vector<Qubit> qubits, merged;  // per-gate scratch, reused
  std::vector<std::size_t> touched;
  for (std::size_t i : gates) {
    const Gate& g = c.gate(i);
    qubits.assign(g.qubits.begin(), g.qubits.end());
    std::sort(qubits.begin(), qubits.end());
    if (g.arity() > max_qubits || barrier(g)) {
      // A wide gate passes through unchanged. A barrier breaks every open
      // run too: all runs flush (not just overlapping ones) so no block
      // is hoisted across a gate it might not commute with.
      flush_all(out, runs);
      out.push_back({{i}, qubits});
      continue;
    }
    // Runs whose support the gate touches. Zero -> open a new run; one or
    // more -> the gate bridges them: merge if the combined support still
    // fits, otherwise flush the touched runs and start fresh. Untouched
    // runs stay open either way — that is what lets interleaved disjoint
    // streams (h 0; h 2; h 1; cx 0 1; ...) each reach a full-width block
    // instead of cutting each other's windows short.
    touched.clear();
    for (std::size_t r = 0; r < runs.size(); ++r)
      for (Qubit q : qubits)
        if (contains(runs[r].support, q)) {
          touched.push_back(r);
          break;
        }
    merged = qubits;
    for (std::size_t r : touched)
      merged.insert(merged.end(), runs[r].support.begin(),
                    runs[r].support.end());
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    if (merged.size() > max_qubits) {
      std::vector<Run> blocked;
      for (std::size_t t = touched.size(); t-- > 0;) {
        blocked.push_back(std::move(runs[touched[t]]));
        runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(touched[t]));
      }
      flush_all(out, blocked);
      runs.push_back({{i}, qubits});
    } else if (touched.empty()) {
      runs.push_back({{i}, qubits});
    } else {
      // Merge the touched runs into the first one; gate order inside the
      // merged run is by original index (runs were disjoint until now, so
      // only the relative order within each original run constrains the
      // product — ascending index respects all of them).
      Run& into = runs[touched[0]];
      for (std::size_t t = 1; t < touched.size(); ++t)
        into.gates.insert(into.gates.end(), runs[touched[t]].gates.begin(),
                          runs[touched[t]].gates.end());
      into.gates.push_back(i);
      std::sort(into.gates.begin(), into.gates.end());
      into.support = merged;
      for (std::size_t t = touched.size(); t-- > 1;)
        runs.erase(runs.begin() + static_cast<std::ptrdiff_t>(touched[t]));
    }
    check_runs(runs, max_qubits);
  }
  flush_all(out, runs);
  return out;
}

Circuit fuse(const Circuit& c, const FusionOptions& opt) {
  HISIM_CHECK(opt.max_qubits >= 1 && opt.max_qubits <= 10);
  if (!opt.keep_wide_gates)
    for (const Gate& g : c.gates())
      HISIM_CHECK_MSG(g.arity() <= opt.max_qubits,
                      "gate wider than fusion limit: " << g.to_string());
  Circuit out(c.num_qubits(), c.name() + "_fused");
  // Re-registering in order preserves parameter ids, so symbolic gates
  // pass through with their expressions intact.
  for (const std::string& p : c.param_names()) out.param(p);
  std::vector<std::size_t> all(c.num_gates());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  // A symbolic gate has no materializable unitary at fusion time; it is a
  // barrier and passes through for bind-at-execute materialization.
  // Fusing it into a dense Unitary here would bake in angle values and
  // defeat the one-plan/many-bindings contract. A reserved noise slot
  // likewise passes through intact: fusing its (currently identity)
  // matrix into a neighbour would erase the insertion point trajectories
  // substitute sampled operators into.
  const auto barrier = [](const Gate& g) {
    return g.is_parametric() || g.kind == GateKind::NoiseSlot;
  };
  static trace::Counter& fused =
      trace::MetricsRegistry::global().counter("kernel.fused_blocks");
  for (const FusionRun& run : fusion_runs(c, all, opt.max_qubits, barrier)) {
    if (run.gates.size() == 1) {  // runs of length one stay the original
      out.add(c.gate(run.gates[0]));
      continue;
    }
    Matrix total = Matrix::identity(Index{1} << run.support.size());
    for (std::size_t gi : run.gates)
      total = embed_unitary(c.gate(gi), run.support) * total;
    out.add(Gate::unitary(run.support, std::move(total)));
    fused.add();
  }
  return out;
}

}  // namespace hisim
