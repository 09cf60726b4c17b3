#include "sv/part_program.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "circuit/fusion.hpp"
#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sv/kernels.hpp"

namespace hisim::sv {
namespace {

using Part = PartProgram::Part;
using Op = PartProgram::Op;

constexpr Qubit kNoSlot = std::numeric_limits<Qubit>::max();

/// Widest fused op. Fixed: only the 4x4 kernel is unrolled, and 3-qubit
/// blocks through the generic kernel cost more than the passes they save
/// (docs/ARCHITECTURE.md, "Hierarchical execution").
constexpr unsigned kFusionQubits = 2;

bool noise_barrier(const Gate& g) { return g.kind == GateKind::NoiseSlot; }

std::vector<Qubit> identity_map(unsigned n) {
  std::vector<Qubit> m(n);
  std::iota(m.begin(), m.end(), Qubit{0});
  return m;
}

/// Builds one part. `bits` are its sorted positions in the vector it runs
/// against; `bit_of` maps each circuit qubit to its position in that
/// vector (kNoSlot where it has none).
Part make_part(const Circuit& c, std::span<const std::size_t> gates,
               std::vector<Qubit> bits, std::span<const Qubit> bit_of) {
  HISIM_CHECK(std::is_sorted(bits.begin(), bits.end()) &&
              std::adjacent_find(bits.begin(), bits.end()) == bits.end());
  Part p;
  p.qubits = std::move(bits);
  p.in_place = true;
  for (unsigned j = 0; j < p.width(); ++j) {
    p.mask |= Index{1} << p.qubits[j];
    p.in_place = p.in_place && p.qubits[j] == j;
  }
  p.slot_of.assign(c.num_qubits(), kNoSlot);
  for (Qubit q = 0; q < c.num_qubits(); ++q) {
    const auto it =
        std::lower_bound(p.qubits.begin(), p.qubits.end(), bit_of[q]);
    if (bit_of[q] != kNoSlot && it != p.qubits.end() && *it == bit_of[q])
      p.slot_of[q] = static_cast<Qubit>(it - p.qubits.begin());
  }
  for (std::size_t gi : gates) {
    HISIM_CHECK(gi < c.num_gates());
    for (Qubit q : c.gate(gi).qubits)
      HISIM_CHECK_MSG(p.slot_of[q] != kNoSlot,
                      "gate " << gi << " acts on qubit " << q
                              << " outside its part");
  }
  for (FusionRun& r :
       fusion_runs(c, gates, kFusionQubits, &noise_barrier))
    p.ops.push_back({std::move(r.gates), std::move(r.support)});
  return p;
}

// ---- bind ------------------------------------------------------------------

/// A part's ops resolved under one binding: what the outer iterations
/// replay.
struct BoundPart {
  std::vector<KernelCall> calls;
  std::vector<BoundPart> inner;
};

std::vector<Qubit> slots(const Part& p, std::span<const Qubit> qs) {
  std::vector<Qubit> out(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) out[i] = p.slot_of[qs[i]];
  return out;
}

KernelCall bind_op(const Part& p, const Op& op, const Circuit& c,
                   std::span<const double> params,
                   std::span<const Gate> noise_ops) {
  if (op.members.size() == 1) {  // a lone gate keeps its own kernel
    const Gate& g = c.gate(op.members[0]);
    if (g.kind == GateKind::NoiseSlot && !noise_ops.empty()) {
      const unsigned id = g.noise_slot_id();
      HISIM_CHECK_MSG(id < noise_ops.size(),
                      "noise slot " << id << " has no sampled operator");
      return resolve_gate(noise_ops[id], slots(p, g.qubits));
    }
    return resolve_gate(g, slots(p, g.qubits), params);
  }
  Matrix total = Matrix::identity(Index{1} << op.support.size());
  for (std::size_t gi : op.members)
    total = embed_unitary(c.gate(gi), op.support, params) * total;
  return resolve_block(slots(p, op.support), total);
}

BoundPart bind(const Part& p, const Circuit& c,
               std::span<const double> params,
               std::span<const Gate> noise_ops) {
  BoundPart b;
  b.calls.reserve(p.ops.size());
  for (const Op& op : p.ops)
    b.calls.push_back(bind_op(p, op, c, params, noise_ops));
  for (const Part& q : p.inner)
    b.inner.push_back(bind(q, c, params, noise_ops));
  return b;
}

// ---- execute ---------------------------------------------------------------

struct Phases {
  double gather = 0.0, apply = 0.0, scatter = 0.0;

  void add(const Phases& o, double scale = 1.0) {
    gather += o.gather * scale;
    apply += o.apply * scale;
    scatter += o.scatter * scale;
  }
};

/// One worker's scratch: a block buffer per nesting depth, grown on demand
/// and reused across outer iterations and parts.
class Workspace {
 public:
  cplx* block(unsigned depth, Index n) {
    if (bufs_.size() <= depth) {
      bufs_.resize(depth + 1);
      caps_.resize(depth + 1, 0);
    }
    if (caps_[depth] < n) {
      bufs_[depth] = allocate_amps(n);
      caps_[depth] = n;
    }
    return bufs_[depth].get();
  }

 private:
  std::vector<AmpBuffer> bufs_;
  std::vector<Index> caps_;
};

/// The submask of `mask` following `x` in increasing order (x a submask
/// of mask): walks deposit(0, mask), deposit(1, mask), ... without PDEP.
Index next_submask(Index x, Index mask) { return (x - mask) & mask; }

/// Where a gathered block's amplitudes live: the part's qubits below its
/// first gap form contiguous runs of `run` amplitudes; the remaining part
/// bits (`high_mask`) select one of `runs` runs.
struct Geometry {
  Index run;
  Index high_mask;
  Index runs;
};

Geometry geometry(const Part& p) {
  unsigned low = 0;
  while (low < p.width() && p.qubits[low] == low) ++low;
  return {Index{1} << low, p.mask & ~((Index{1} << low) - 1),
          Index{1} << (p.width() - low)};
}

/// Copies runs [lo, hi) of the block at `base` from the outer vector into
/// the block buffer (kGather) or back.
template <bool kGather>
void copy_runs(cplx* outer, cplx* block, Index base, const Geometry& g,
               Index lo, Index hi) {
  Index off = bits::deposit(lo, g.high_mask);
  for (Index r = lo; r < hi; ++r, off = next_submask(off, g.high_mask)) {
    cplx* o = outer + (base | off);
    cplx* b = block + r * g.run;
    if (g.run == 1) {
      if constexpr (kGather) *b = *o; else *o = *b;
    } else if constexpr (kGather) {
      std::memcpy(static_cast<void*>(b), o, g.run * kAmpBytes);
    } else {
      std::memcpy(static_cast<void*>(o), b, g.run * kAmpBytes);
    }
  }
}

/// Smallest vector (and smallest copy) worth a pool region: below it the
/// fork-join costs more than the sweep it would divide.
constexpr Index kSplitMin = Index{1} << 14;

/// Copies one whole block, fanning the runs out over the pool if asked.
template <bool kGather>
void copy_block(cplx* outer, cplx* block, Index base, const Geometry& g,
                bool fan_out) {
  if (!fan_out) return copy_runs<kGather>(outer, block, base, g, 0, g.runs);
  parallel::for_range(
      0, g.runs,
      [&](Index lo, Index hi) {
        copy_runs<kGather>(outer, block, base, g, lo, hi);
      },
      std::max<Index>(1, kSplitMin / g.run));
}

/// Splits [0, iters) into `slots` contiguous shares, one pool task each:
/// fn(slot, first, last).
template <class Fn>
void for_shares(Index slots, Index iters, const Fn& fn) {
  parallel::for_range(
      0, slots,
      [&](Index lo, Index hi) {
        for (Index s = lo; s < hi; ++s)
          fn(s, iters * s / slots, iters * (s + 1) / slots);
      },
      /*grain=*/1);
}

/// A Stopwatch that reads the clock only when the phases are wanted
/// (level-2 parts run untimed inside their parent's execute step).
class PhaseClock {
 public:
  explicit PhaseClock(bool on) : on_(on) {}
  void start() {
    if (on_) sw_.start();
  }
  void stop() {
    if (on_) sw_.stop();
  }
  double seconds() const { return sw_.seconds(); }

 private:
  bool on_;
  Stopwatch sw_;
};

void exec_part(const Part& p, const BoundPart& b, StateView v,
               const KernelOps& ops, std::span<Workspace> pool,
               unsigned depth, Phases* ph);

/// The execute step of one outer iteration: the part's ops on its block,
/// or — for a level-1 part of a two-level program — its level-2 parts.
void execute_step(const Part& p, const BoundPart& b, StateView block,
                  const KernelOps& ops, std::span<Workspace> pool,
                  unsigned depth) {
  if (p.inner.empty()) {
    for (const KernelCall& call : b.calls) apply_call(block, call, ops);
    return;
  }
  for (std::size_t i = 0; i < p.inner.size(); ++i)
    exec_part(p.inner[i], b.inner[i], block, ops, pool, depth, nullptr);
}

/// Runs part `p` over every outer iteration of `v`, adding its phase
/// seconds to `ph` when given. `pool` holds one workspace per worker this
/// call may fan out over (pool[0] is the calling thread's); `depth`
/// selects the block buffer within each.
void exec_part(const Part& p, const BoundPart& b, StateView v,
               const KernelOps& ops, std::span<Workspace> pool,
               unsigned depth, Phases* ph) {
  const unsigned w = p.width();
  HISIM_CHECK(w <= v.num_qubits() &&
              (w == 0 || p.qubits.back() < v.num_qubits()));
  if (b.calls.empty() && p.inner.empty()) return;  // nothing to apply
  const Index iters = v.size() >> w;
  const Index width =
      std::min<Index>(parallel::region_width(), pool.size());
  // Enough iterations for every worker: split them, kernels run inline.
  // Otherwise iterate in order and let each kernel fan out.
  const bool split = width > 1 && iters >= width && v.size() >= kSplitMin;
  cplx* a = v.data();

  if (p.in_place) {  // contiguous blocks: no gather, no scatter, no buffer
    const auto blocks = [&](Index first, Index last,
                            std::span<Workspace> mine) {
      for (Index m = first; m < last; ++m)
        execute_step(p, b, StateView(a + (m << w), w), ops, mine, depth + 1);
    };
    PhaseClock apply(ph != nullptr);
    apply.start();
    if (split)
      for_shares(width, iters, [&](Index s, Index first, Index last) {
        blocks(first, last, pool.subspan(s, 1));
      });
    else
      blocks(0, iters, pool);
    apply.stop();
    if (ph) ph->apply += apply.seconds();
    return;
  }

  const Geometry g = geometry(p);
  const Index inv = ~p.mask & (v.size() - 1);
  // In order, the copies fan out too when they are large enough.
  const bool fan_out = !split && width > 1 && g.runs * g.run > kSplitMin;
  // Iterations [first, last) on one worker's block buffer; adds the
  // worker's busy time per phase to `out` when given.
  const auto sweep = [&](Index first, Index last, std::span<Workspace> mine,
                         Phases* out) {
    cplx* blk = mine[0].block(depth, Index{1} << w);
    PhaseClock gs(out != nullptr), as(out != nullptr), ss(out != nullptr);
    Index base = bits::deposit(first, inv);
    for (Index m = first; m < last; ++m, base = next_submask(base, inv)) {
      gs.start();
      copy_block<true>(a, blk, base, g, fan_out);
      gs.stop();
      as.start();
      execute_step(p, b, StateView(blk, w), ops, mine, depth + 1);
      as.stop();
      ss.start();
      copy_block<false>(a, blk, base, g, fan_out);
      ss.stop();
    }
    if (out) out->add({gs.seconds(), as.seconds(), ss.seconds()});
  };
  if (!split) return sweep(0, iters, pool, ph);
  // Per-worker busy time, reduced once after the region (the Galois
  // GAccumulator pattern): each phase reports its share of the wall.
  std::vector<Phases> busy(width);
  for_shares(width, iters, [&](Index s, Index first, Index last) {
    sweep(first, last, pool.subspan(s, 1), ph ? &busy[s] : nullptr);
  });
  if (ph)
    for (const Phases& x : busy) ph->add(x, 1.0 / static_cast<double>(width));
}

/// Modeled traffic and work of one run of `p` against a `vec_qubits`
/// vector (see HierarchicalStats).
struct Traffic {
  Index outer = 0, inner = 0;
  double flops = 0.0;
};

Traffic account(const Part& p, const BoundPart& b, unsigned vec_qubits) {
  const unsigned w = p.width();
  const Index iters = dim(vec_qubits - w);
  Traffic t;
  t.outer = 2 * dim(vec_qubits) * kAmpBytes;
  if (p.inner.empty()) {
    t.inner = b.calls.size() * 2 * dim(w) * kAmpBytes * iters;
    for (const KernelCall& call : b.calls)
      t.flops += call_flops(call, w) * static_cast<double>(iters);
    return t;
  }
  for (std::size_t i = 0; i < p.inner.size(); ++i) {
    const Traffic ct = account(p.inner[i], b.inner[i], w);
    t.inner += (ct.outer + ct.inner) * iters;
    t.flops += ct.flops * static_cast<double>(iters);
  }
  return t;
}

}  // namespace

PartProgram PartProgram::compile(const Circuit& c,
                                 const partition::Partitioning& parts) {
  PartProgram prog;
  prog.num_qubits_ = c.num_qubits();
  prog.num_gates_ = c.num_gates();
  const std::vector<Qubit> id = identity_map(c.num_qubits());
  for (const partition::Part& part : parts.parts)
    prog.parts_.push_back(make_part(c, part.gates, part.qubits, id));
  return prog;
}

PartProgram PartProgram::compile(const Circuit& c,
                                 const partition::TwoLevelPartitioning& parts,
                                 unsigned pad_to) {
  HISIM_CHECK(parts.level2.size() == parts.level1.parts.size());
  PartProgram prog;
  prog.num_qubits_ = c.num_qubits();
  prog.num_gates_ = c.num_gates();
  const std::vector<Qubit> id = identity_map(c.num_qubits());
  for (std::size_t pi = 0; pi < parts.level1.parts.size(); ++pi) {
    const partition::Part& p1 = parts.level1.parts[pi];
    Part outer = make_part(c, {}, p1.qubits, id);
    const unsigned w1 = outer.width();
    for (const partition::Part& p2 : parts.level2[pi].parts) {
      // Level-2 gate indices are local to the level-1 part.
      std::vector<std::size_t> gates;
      gates.reserve(p2.gates.size());
      for (std::size_t local : p2.gates) gates.push_back(p1.gates.at(local));
      std::vector<Qubit> bits;
      bits.reserve(std::max<std::size_t>(p2.qubits.size(), pad_to));
      for (Qubit q : p2.qubits) bits.push_back(outer.slot_of[q]);
      std::sort(bits.begin(), bits.end());
      // Padding (paper Sec. IV): borrow the lowest free level-1 slots for
      // spatial locality.
      const unsigned target = std::min(pad_to, w1);
      for (Qubit s = 0; s < w1 && bits.size() < target; ++s)
        if (!std::binary_search(bits.begin(), bits.end(), s))
          bits.insert(std::lower_bound(bits.begin(), bits.end(), s), s);
      outer.inner.push_back(make_part(c, gates, bits, outer.slot_of));
    }
    prog.parts_.push_back(std::move(outer));
  }
  return prog;
}

PartProgram PartProgram::compile_part(const Circuit& c,
                                      std::span<const std::size_t> gates,
                                      std::span<const Qubit> part_qubits) {
  PartProgram prog;
  prog.num_qubits_ = c.num_qubits();
  prog.num_gates_ = c.num_gates();
  prog.parts_.push_back(
      make_part(c, gates,
                std::vector<Qubit>(part_qubits.begin(), part_qubits.end()),
                identity_map(c.num_qubits())));
  return prog;
}

std::size_t PartProgram::num_ops() const {
  std::size_t n = 0;
  for (const Part& p : parts_) {
    n += p.ops.size();
    for (const Part& q : p.inner) n += q.ops.size();
  }
  return n;
}

HierarchicalStats PartProgram::run(const Circuit& c, StateVector& state,
                                   const KernelOps& ops,
                                   std::span<const double> params,
                                   std::span<const Gate> noise_ops) const {
  HISIM_CHECK_MSG(c.num_qubits() == num_qubits_ &&
                      c.num_gates() == num_gates_,
                  "part program run against a circuit it was not compiled "
                  "from");
  HierarchicalStats st;
  // One workspace per worker, reused by every part of this run.
  std::vector<Workspace> pool(parallel::region_width());
  for (std::size_t pi = 0; pi < parts_.size(); ++pi) {
    const Part& p = parts_[pi];
    // Per-part granularity; the iterations inside are far too hot for
    // spans — the phase totals cover those.
    trace::TraceSpan span("part", "sv");
    span.arg("index", static_cast<std::int64_t>(pi));
    const BoundPart b = bind(p, c, params, noise_ops);
    Phases ph;
    exec_part(p, b, state, ops, pool, 0, &ph);
    const Traffic t = account(p, b, state.num_qubits());
    st.parts += 1;
    st.inner_parts += p.inner.size();
    st.gather_seconds += ph.gather;
    st.execute_seconds += ph.apply;
    st.scatter_seconds += ph.scatter;
    st.outer_bytes_moved += t.outer;
    st.inner_bytes_touched += t.inner;
    st.flops += t.flops;
  }
  return st;
}

}  // namespace hisim::sv
