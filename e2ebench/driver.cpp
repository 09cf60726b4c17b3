// End-to-end and per-layer benchmark driver for the HiSVSIM library.
//
// One process, one closed-loop client: solves are issued back to back
// through the public API (Engine::compile, ExecutionPlan::execute /
// execute_sweep), every call is timed from outside the library, and every
// result is checked against a flat reference computed before the timed
// region. The driver prints a provenance line and then, as its last line,
// one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (solve_s, setup_s,
// peak_rss_mib); with --trace 1 they are the per-layer ones, read from a
// traced batch, the numbers Result::metrics exposes, and direct calls
// into opt/dag/partition/sv/dist. e2ebench/README.md defines each metric.
// Normally launched through e2ebench/run.py, which builds this binary.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"
#include "dist/hisvsim_dist.hpp"
#include "hisvsim/engine.hpp"
#include "opt/pass_manager.hpp"
#include "partition/partition.hpp"
#include "sv/observables.hpp"
#include "sv/simulator.hpp"
#include "sv/traffic.hpp"

namespace {

using namespace hisim;

constexpr double kTol = 1e-10;        // max abs error against the reference
constexpr std::size_t kShots = 1024;  // shots drawn by every solve
// Compile-only rounds after each timed batch, so the setup_s samples are
// spread over the whole run rather than taken in one burst.
constexpr int kSetupRoundsPerBatch = 25;
constexpr unsigned kHierAutoLimit = 21;  // Options::limit = 0 resolves here
constexpr unsigned kProcessQubits = 2;   // 4 simulated ranks

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned n = 0;     // 0 = the workload's own size
  // QAOA sweep grid side. 4x4 keeps a batch near 4 s at n=20, so a run's
  // median is taken over several batches.
  unsigned grid = 4;
  bool corrupt_reference = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--n QUBITS] [--grid G] [--corrupt-reference] "
               "[--trace-out PREFIX] [--commit SHA] [--source-digest HEX]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-reference") {
      a.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--n") a.n = static_cast<unsigned>(std::stoul(v));
      else if (k == "--grid") a.grid = static_cast<unsigned>(std::stoul(v));
      else if (k == "--trace-out") a.trace_out = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-digest") a.source_digest = v;
      else usage("unknown flag " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.grid == 0) usage("--grid must be positive");
  return a;
}

// ---------------------------------------------------------------------------
// Host probes

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

/// Resets the kernel's peak-RSS watermark (VmHWM); false if unsupported,
/// in which case peak_rss_mib() reports the whole-process peak.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
  return 0.0;
}

/// STREAM-style copy bandwidth on the library's worker pool, in GB/s
/// (bytes read + bytes written), median over repetitions.
double stream_copy_gbps(std::size_t array_bytes) {
  const std::size_t n = array_bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const Index grain = Index{1} << 18;  // 2 MiB chunks
  parallel::for_range(
      0, n,
      [&](Index lo, Index hi) {
        for (Index i = lo; i < hi; ++i) {
          a[i] = static_cast<double>(i);
          b[i] = 0.0;
        }
      },
      grain);
  std::vector<double> rates;
  for (int rep = 0; rep < 9; ++rep) {
    Timer t;
    parallel::for_range(
        0, n,
        [&](Index lo, Index hi) {
          std::memcpy(b.get() + lo, a.get() + lo, (hi - lo) * sizeof(double));
        },
        grain);
    rates.push_back(2.0 * static_cast<double>(n * sizeof(double)) /
                    t.seconds() / 1e9);
  }
  if (b[n - 1] != static_cast<double>(n - 1))
    throw std::runtime_error("stream copy produced a wrong value");
  return median(rates);
}

// ---------------------------------------------------------------------------
// State digest: the norm, amplitudes at seeded indices, and seeded ±1
// weighted sums over fixed blocks, so every amplitude contributes to the
// comparison without the reference state staying resident.

struct Digest {
  double norm = 0.0;
  std::vector<cplx> samples;
  std::vector<cplx> blocks;
};

Digest make_digest(const sv::StateVector& s, std::uint64_t key) {
  constexpr std::size_t kSamples = 512, kBlocks = 256;
  const Index size = s.size();
  const Index blocks = std::min<Index>(kBlocks, size);
  const Index per_block = size / blocks;
  Digest d;
  d.blocks.resize(blocks);
  std::vector<double> norms(blocks);
  const cplx* amp = s.data();
  parallel::for_range(
      0, blocks,
      [&](Index lo, Index hi) {
        for (Index b = lo; b < hi; ++b) {
          cplx acc{};
          double nrm = 0.0;
          for (Index i = b * per_block; i < (b + 1) * per_block; ++i) {
            acc += (mix(key, i) >> 63) ? -amp[i] : amp[i];
            nrm += std::norm(amp[i]);
          }
          d.blocks[b] = acc;
          norms[b] = nrm;
        }
      },
      /*grain=*/1);
  for (double x : norms) d.norm += x;
  d.samples.reserve(kSamples);
  for (std::size_t k = 0; k < kSamples; ++k)
    d.samples.push_back(amp[mix(key ^ 0x5a5a, k) & (size - 1)]);
  return d;
}

bool digests_match(const Digest& ref, const Digest& got) {
  if (std::abs(ref.norm - got.norm) > kTol) return false;
  if (ref.samples.size() != got.samples.size() ||
      ref.blocks.size() != got.blocks.size())
    return false;
  for (std::size_t i = 0; i < ref.samples.size(); ++i)
    if (std::abs(ref.samples[i] - got.samples[i]) > kTol) return false;
  for (std::size_t i = 0; i < ref.blocks.size(); ++i)
    if (std::abs(ref.blocks[i] - got.blocks[i]) > kTol) return false;
  return true;
}

/// MaxCut ZZ energy sum_(a,b) <Z_a Z_b>, in one pass over the
/// probabilities: the reference the sweep's per-edge observables must sum
/// to. Independent of sv::expectation.
double zz_energy(const sv::StateVector& s,
                 const std::vector<std::pair<Qubit, Qubit>>& edges) {
  double e = 0.0;
  for (Index i = 0; i < s.size(); ++i) {
    const double p = std::norm(s[i]);
    if (p == 0.0) continue;
    int z = 0;
    for (const auto& [a, b] : edges) z += (((i >> a) ^ (i >> b)) & 1) ? -1 : 1;
    e += p * z;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Result report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os.precision(17);
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": "
       << ms[i].value << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << '}';
  return os.str();
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { Set, Sweep };

struct Workload {
  const char* name;
  Kind kind;
  Target target;
  unsigned n;
};

// The Table I set also runs once on Target::Hierarchical and
// Target::DistributedSerial in the traced run, for the sv.hier.* and
// dist.* layers. As timed workloads those targets are too unsteady on a
// shared 4-core host (see e2ebench/README.md).
constexpr Workload kWorkloads[] = {
    {"flat-n24", Kind::Set, Target::Flat, 24},
    {"qaoa-sweep-n20", Kind::Sweep, Target::Hierarchical, 20},
};

Options target_options(Target t) {
  Options o;
  o.target = t;
  if (target_is_distributed(t)) o.process_qubits = kProcessQubits;
  return o;
}

/// Per-layer accumulators of one traced batch (sums over its solves).
struct Layers {
  double compile_s = 0, execute_s = 0, metric_phase_s = 0;
  double flat_apply_s = 0, flat_bytes = 0;
  double hier_gather_s = 0, hier_execute_s = 0, hier_scatter_s = 0;
  double hier_outer_bytes = 0, hier_inner_bytes = 0;
  double dist_apply_s = 0, dist_exchange_s = 0, dist_exchange_bytes = 0;
  double dist_exchanges = 0, dist_gather_s = 0, dist_permuted_bytes = 0;
  double sample_s = 0;
  double sweep_point_s = 0, sweep_efficiency = 0;
  // From the trace segments (see trace_segment_end).
  double regions = 0, recorded_regions = 0, region_us = 0, dropped = 0;
};

double metric(const Result& r, const char* key) {
  const auto it = r.metrics.find(key);
  return it == r.metrics.end() ? 0.0 : it->second;
}

/// Folds one execution's report into the layer sums. Phase seconds for
/// engine.unaccounted_s come from Result::metrics; the sv.hier.* numbers
/// come from the HierarchicalStats fields the Result carries, so the
/// phase-sum check compares two accounting paths.
void absorb(Layers& L, const Result& r) {
  switch (r.target) {
    case Target::Flat:
      L.metric_phase_s += metric(r, "apply.seconds");
      L.flat_apply_s += metric(r, "apply.seconds");
      break;
    case Target::Hierarchical:
      L.metric_phase_s += metric(r, "gather.seconds") +
                          metric(r, "apply.seconds") +
                          metric(r, "scatter.seconds");
      L.hier_gather_s += r.gather_seconds;
      L.hier_execute_s += r.apply_seconds;
      L.hier_scatter_s += r.scatter_seconds;
      L.hier_outer_bytes += static_cast<double>(r.outer_bytes_moved);
      L.hier_inner_bytes += static_cast<double>(r.inner_bytes_touched);
      break;
    case Target::DistributedSerial: {
      const double apply = metric(r, "apply.seconds.sum");
      const double exch = metric(r, "exchange.measured_seconds.sum");
      const double gather = metric(r, "gather.seconds");
      L.metric_phase_s += apply + exch + gather;
      L.dist_apply_s += apply;
      L.dist_exchange_s += exch;
      L.dist_gather_s += gather;
      L.dist_exchange_bytes += metric(r, "exchange.bytes");
      L.dist_exchanges += metric(r, "exchange.count");
      // Each exchange permutes the whole sharded state: read + write.
      L.dist_permuted_bytes += metric(r, "exchange.count") * 2.0 *
                               static_cast<double>(dim(r.qubits) * kAmpBytes);
      break;
    }
    default:
      break;
  }
}

/// Count and mean duration (µs) of the pool's fork-join region spans in a
/// Chrome trace document (one event per line, see common/trace.cpp).
void pool_regions(const std::string& json, double& count, double& mean_us) {
  const std::string needle = "\"name\": \"pool.region\"";
  double n = 0.0, sum = 0.0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size())) {
    const std::size_t eol = json.find('\n', pos);
    const std::size_t dur = json.find("\"dur\": ", pos);
    if (dur < eol) sum += std::strtod(json.c_str() + dur + 7, nullptr);
    n += 1.0;
  }
  count = n;
  mean_us = n > 0.0 ? sum / n : 0.0;
}

/// Ends the trace session a traced batch starts per solve (per sweep), so
/// the bounded per-thread event rings only have to hold one solve. Each
/// segment is harvested into the layer sums and written to
/// `<prefix>-<label>.json` when a prefix is given. A solve can still emit
/// more spans than a ring holds: the overflow is counted in L.dropped and
/// added to L.regions (nearly every dropped event on a hierarchical solve
/// is a pool.region span), while the mean duration covers recorded spans.
void trace_segment_end(Layers& L, const std::string& prefix,
                       const std::string& label) {
  trace::TraceSession::stop();
  const auto dropped =
      static_cast<double>(trace::TraceSession::dropped_count());
  double count = 0.0, mean_us = 0.0;
  pool_regions(trace::TraceSession::chrome_json(), count, mean_us);
  L.dropped += dropped;
  L.regions += count + dropped;
  L.recorded_regions += count;
  L.region_us += count * mean_us;
  if (!prefix.empty())
    trace::TraceSession::write(prefix + "-" + label + ".json");
  trace::TraceSession::clear();
}

struct Context {
  Args args;
  const Workload* w = nullptr;
  unsigned n = 0;
  unsigned threads = 1;
  Options opt;
  Tally tally;
  std::vector<double> setup_samples;  // Σ compile wall per setup round
  std::vector<std::string> provenance_circuits;
  std::string kernel_tier = "unknown";
};

/// Compiles every circuit `rounds` times; each round's summed compile wall
/// is one setup_s sample. Records per-circuit provenance once.
void setup_rounds(Context& ctx, const std::vector<const Circuit*>& cs,
                  int rounds) {
  for (int round = 0; round < rounds; ++round) {
    double sum = 0.0;
    for (const Circuit* c : cs) {
      Timer t;
      const ExecutionPlan plan = Engine(ctx.opt).compile(*c);
      sum += t.seconds();
      if (ctx.provenance_circuits.size() < cs.size()) {
        std::ostringstream os;
        os << "{\"name\": \"" << c->name() << "\", \"gates\": "
           << c->num_gates() << ", \"gates_compiled\": "
           << plan.circuit().num_gates() << ", \"parts\": "
           << plan.num_parts() << "}";
        ctx.provenance_circuits.push_back(os.str());
        ctx.kernel_tier = sv::kernel_tier_name(plan.kernel_tier());
      }
    }
    ctx.setup_samples.push_back(sum);
  }
}

// ---- Table I set on one target ---------------------------------------------

struct SetInputs {
  std::vector<Circuit> circuits;
  std::vector<Digest> refs;
  std::uint64_t digest_key = 0;
  std::uint64_t shot_seed = 0;
};

SetInputs make_set(const Context& ctx) {
  const unsigned n = ctx.n;
  const std::uint64_t s = ctx.args.seed;
  SetInputs in;
  in.circuits.push_back(circuits::qft(n));
  in.circuits.push_back(circuits::ising(n, 3, mix(s, 1)));
  in.circuits.push_back(
      circuits::grover(n, 1, mix(s, 2) & ((Index{1} << (n - 1)) - 1)));
  in.circuits.push_back(circuits::bv(n, mix(s, 3)));
  in.digest_key = mix(s, 4);
  in.shot_seed = mix(s, 5);
  // Flat references on the scalar kernel tier (the engine resolves Auto
  // to SIMD, so the check is not tautological), outside every timed
  // region; only digests stay.
  for (const Circuit& c : in.circuits) {
    sv::StateVector st(n);
    sv::FlatSimulator().run(c, st, &sv::scalar_kernel_ops());
    in.refs.push_back(make_digest(st, in.digest_key));
  }
  if (ctx.args.corrupt_reference) in.refs[0].samples[0] += cplx(1e-6, 0.0);
  return in;
}

/// One batch: compile + execute + check every circuit of the set under
/// `opt`. Returns the batch wall time minus the layer bookkeeping done
/// when `L` is set.
double set_batch(Context& ctx, const SetInputs& in, const Options& opt,
                 Layers* L) {
  ExecOptions x;
  x.shots = kShots;
  x.shot_seed = in.shot_seed;
  Timer wall;
  double excluded = 0.0, setup = 0.0;
  for (std::size_t i = 0; i < in.circuits.size(); ++i) {
    if (L) trace::TraceSession::start();
    bool ok = false;
    try {
      trace::TraceSpan solve_span("bench.solve", "bench");
      Timer tc;
      ExecutionPlan plan;
      {
        trace::TraceSpan span("bench.compile", "bench");
        plan = Engine(opt).compile(in.circuits[i]);
      }
      const double compile_s = tc.seconds();
      setup += compile_s;
      Timer te;
      Result r;
      {
        trace::TraceSpan span("bench.execute", "bench");
        r = plan.execute(x);
      }
      const double execute_s = te.seconds();
      {
        trace::TraceSpan span("bench.check", "bench");
        ok = r.samples.size() == kShots &&
             std::abs(r.norm - in.refs[i].norm) <= kTol &&
             digests_match(in.refs[i], make_digest(r.state, in.digest_key));
      }
      if (L) {
        Timer tl;
        L->compile_s += compile_s;
        L->execute_s += execute_s;
        absorb(*L, r);
        if (r.target == Target::Flat)
          L->flat_bytes += sv::model_flat_traffic(plan.circuit()).total();
        Rng rng(in.shot_seed);
        Timer ts;
        std::vector<Index> samples;
        {
          trace::TraceSpan span("bench.sample", "bench");
          samples = sv::sample(r.state, kShots, rng);
        }
        L->sample_s += ts.seconds();
        ok = ok && samples == r.samples;
        excluded += tl.seconds();
      }
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: " << in.circuits[i].name() << " failed: "
                << e.what() << "\n";
      ok = false;
    }
    if (L) {
      Timer tl;
      trace_segment_end(*L, ctx.args.trace_out,
                        std::string(target_name(opt.target)) + "-" +
                            in.circuits[i].name());
      excluded += tl.seconds();
    }
    if (!ok)
      std::cerr << "e2ebench: " << in.circuits[i].name()
                << " does not match its flat reference\n";
    ctx.tally.record(ok);
  }
  ctx.setup_samples.push_back(setup);
  return wall.seconds() - excluded;
}

// ---- QAOA parameter sweep ---------------------------------------------------

struct SweepInputs {
  circuits::QaoaInstance inst;
  std::vector<ParamBinding> points;
  std::vector<double> ref_energy;
  std::vector<sv::PauliString> observables;
};

SweepInputs make_sweep(const Context& ctx) {
  SweepInputs in;
  in.inst = circuits::qaoa_instance(ctx.n, 2, mix(ctx.args.seed, 6));
  const unsigned g = ctx.args.grid;
  for (unsigned i = 0; i < g; ++i)
    for (unsigned j = 0; j < g; ++j)
      in.points.push_back(in.inst.uniform_binding(
          M_PI * (i + 0.5) / g, 0.5 * M_PI * (j + 0.5) / g));
  for (const auto& [a, b] : in.inst.edges) {
    sv::PauliString p;
    p.factors = {{a, sv::Pauli::Z}, {b, sv::Pauli::Z}};
    in.observables.push_back(p);
  }
  // Flat references, points in parallel (the nested kernels run inline).
  in.ref_energy.resize(in.points.size());
  parallel::for_range(
      0, in.points.size(),
      [&](Index lo, Index hi) {
        for (Index k = lo; k < hi; ++k) {
          sv::StateVector st(ctx.n);
          sv::FlatSimulator().run(in.inst.circuit.bound(in.points[k]), st);
          in.ref_energy[k] = zz_energy(st, in.inst.edges);
        }
      },
      /*grain=*/1);
  if (ctx.args.corrupt_reference) in.ref_energy[0] += 1e-6;
  return in;
}

double sweep_batch(Context& ctx, const SweepInputs& in, Layers* L) {
  ExecOptions x;
  x.want_state = false;
  x.observables = in.observables;
  Timer wall;
  double excluded = 0.0;
  if (L) trace::TraceSession::start();
  try {
    trace::TraceSpan batch_span("bench.sweep", "bench");
    Timer tc;
    ExecutionPlan plan;
    {
      trace::TraceSpan span("bench.compile", "bench");
      plan = Engine(ctx.opt).compile(in.inst.circuit);
    }
    const double compile_s = tc.seconds();
    ctx.setup_samples.push_back(compile_s);
    Timer te;
    std::vector<Result> rs;
    {
      trace::TraceSpan span("bench.execute_sweep", "bench");
      rs = plan.execute_sweep(in.points, x);
    }
    const double sweep_s = te.seconds();
    for (std::size_t k = 0; k < rs.size(); ++k) {
      double e = 0.0;
      for (double v : rs[k].observables) e += v;
      const bool ok = rs[k].observables.size() == in.observables.size() &&
                      std::abs(e - in.ref_energy[k]) <= kTol;
      if (!ok)
        std::cerr << "e2ebench: sweep point " << k << " energy "
                  << std::setprecision(17) << e << " != reference "
                  << in.ref_energy[k] << "\n";
      ctx.tally.record(ok);
    }
    for (std::size_t k = rs.size(); k < in.points.size(); ++k)
      ctx.tally.record(false);
    if (L) {
      Timer tl;
      L->compile_s += compile_s;
      L->execute_s += sweep_s;
      std::vector<double> point_s;
      double busy = 0.0, phases = 0.0;
      for (const Result& r : rs) {
        point_s.push_back(r.execute_seconds);
        busy += r.execute_seconds;
        Layers one;
        absorb(one, r);
        phases += one.metric_phase_s;
        L->hier_gather_s += one.hier_gather_s;
        L->hier_execute_s += one.hier_execute_s;
        L->hier_scatter_s += one.hier_scatter_s;
        L->hier_outer_bytes += one.hier_outer_bytes;
        L->hier_inner_bytes += one.hier_inner_bytes;
      }
      // Points overlap in time: the phase seconds of `threads` concurrent
      // points fill one second of sweep wall.
      L->metric_phase_s += phases / ctx.threads;
      L->sweep_point_s = median(point_s);
      L->sweep_efficiency = busy / (sweep_s * ctx.threads);
      excluded += tl.seconds();
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: sweep failed: " << e.what() << "\n";
    for (std::size_t k = 0; k < in.points.size(); ++k) ctx.tally.record(false);
  }
  if (L) {
    Timer tl;
    trace_segment_end(*L, ctx.args.trace_out, "sweep");
    excluded += tl.seconds();
  }
  return wall.seconds() - excluded;
}

// ---------------------------------------------------------------------------
// Traced-run helpers

struct OptDagPartition {
  double opt_s = 0, gates_removed = 0, dag_s = 0, partition_s = 0, parts = 0;
  double dist_compile_plan_s = 0;
};

/// Direct calls into the compile-side layers, with the options
/// Engine::compile uses on the hierarchical target (and, for the Table I
/// set, on the distributed one).
OptDagPartition probe_compile_layers(const Context& ctx,
                                     const std::vector<const Circuit*>& cs) {
  OptDagPartition o;
  const bool dist = ctx.w->kind == Kind::Set;
  const Options hier_opt = target_options(Target::Hierarchical);
  for (const Circuit* c : cs) {
    OptReport rep;
    Timer t;
    Circuit optimized;
    {
      trace::TraceSpan span("bench.opt", "bench");
      optimized = PassManager::default_pipeline().run(*c, &rep);
    }
    o.opt_s += t.seconds();
    o.gates_removed += static_cast<double>(rep.removed());
    t.reset();
    std::unique_ptr<dag::CircuitDag> g;
    {
      trace::TraceSpan span("bench.dag", "bench");
      g = std::make_unique<dag::CircuitDag>(optimized);
    }
    o.dag_s += t.seconds();
    partition::PartitionOptions po;
    po.strategy = hier_opt.strategy;
    po.seed = hier_opt.seed;
    po.limit = std::min(kHierAutoLimit, ctx.n);
    t.reset();
    partition::Partitioning p;
    {
      trace::TraceSpan span("bench.partition", "bench");
      p = partition::make_partition(*g, po);
    }
    o.partition_s += t.seconds();
    o.parts += static_cast<double>(p.num_parts());
    if (dist) {
      dist::DistOptions dopt;
      dopt.process_qubits = kProcessQubits;
      dopt.part.strategy = hier_opt.strategy;
      dopt.part.seed = hier_opt.seed;
      dopt.part.limit = 0;  // the engine's auto: the local qubit count
      t.reset();
      trace::TraceSpan span("bench.compile_plan", "bench");
      (void)dist::compile_plan(optimized, dopt);
      o.dist_compile_plan_s += t.seconds();
    }
  }
  return o;
}

/// FlatSimulator::run of qft(n) on one thread ÷ on all threads.
double flat_thread_speedup(const Context& ctx) {
  const Circuit c = circuits::qft(ctx.n);
  auto run = [&](unsigned threads) {
    parallel::set_num_threads(threads);
    sv::StateVector st(ctx.n);
    Timer t;
    sv::FlatSimulator().run(c, st);
    return t.seconds();
  };
  const double one = run(1);
  const double all = run(ctx.threads);
  parallel::set_num_threads(ctx.threads);
  return one / all;
}

/// Median wall of sv::expectation over the sweep's ZZ terms, on a few
/// reference points; each total must equal the one-pass reference energy.
double expectation_probe(const SweepInputs& in, unsigned n, bool& ok) {
  std::vector<double> times;
  const std::size_t probes = std::min<std::size_t>(3, in.points.size());
  for (std::size_t k = 0; k < probes; ++k) {
    sv::StateVector st(n);
    sv::FlatSimulator().run(in.inst.circuit.bound(in.points[k]), st);
    Timer t;
    double e = 0.0;
    {
      trace::TraceSpan span("bench.expectation", "bench");
      for (const sv::PauliString& p : in.observables)
        e += sv::expectation(st, p);
    }
    times.push_back(t.seconds());
    if (std::abs(e - in.ref_energy[k]) > kTol) ok = false;
  }
  return median(times);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

void print_provenance(const Context& ctx, double stream_mib) {
  std::ostringstream os;
  os << "{\"provenance\": {\"workload\": \"" << ctx.w->name
     << "\", \"seed\": " << ctx.args.seed << ", \"trace\": "
     << (ctx.args.trace ? 1 : 0) << ", \"commit\": \""
     << json_escape(ctx.args.commit) << "\", \"source_digest\": \""
     << json_escape(ctx.args.source_digest) << "\", \"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"threads\": " << ctx.threads << ", \"kernel_tier\": \""
     << ctx.kernel_tier << "\", \"llc_mib\": "
     << static_cast<double>(llc_bytes()) / (1 << 20) << ", \"n\": " << ctx.n;
  if (stream_mib > 0) os << ", \"stream_array_mib\": " << stream_mib;
  os << ", \"circuits\": [";
  for (std::size_t i = 0; i < ctx.provenance_circuits.size(); ++i)
    os << (i ? ", " : "") << ctx.provenance_circuits[i];
  os << "]}}";
  std::cout << os.str() << "\n";
}

// ---------------------------------------------------------------------------

int run(const Args& args) {
  Context ctx;
  ctx.args = args;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) ctx.w = &w;
  if (!ctx.w) usage("unknown workload " + args.workload);
  ctx.n = args.n ? args.n : ctx.w->n;
  ctx.threads = std::max(1u, std::thread::hardware_concurrency());
  parallel::set_num_threads(ctx.threads);
  ctx.opt = target_options(ctx.w->target);

  // The bandwidth reference runs first, before any state is allocated.
  double copy_gbps = 0.0, stream_mib = 0.0;
  if (args.trace) {
    const std::size_t bytes = 4 * llc_bytes();
    stream_mib = static_cast<double>(bytes) / (1 << 20);
    copy_gbps = stream_copy_gbps(bytes);
  }

  const bool sweep = ctx.w->kind == Kind::Sweep;
  SetInputs set;
  SweepInputs sw;
  std::vector<const Circuit*> compiled;
  if (sweep) {
    sw = make_sweep(ctx);
    compiled.push_back(&sw.inst.circuit);
  } else {
    set = make_set(ctx);
    for (const Circuit& c : set.circuits) compiled.push_back(&c);
  }
  setup_rounds(ctx, compiled, 1);
  print_provenance(ctx, stream_mib);
  auto batch = [&](Layers* L) {
    return sweep ? sweep_batch(ctx, sw, L) : set_batch(ctx, set, ctx.opt, L);
  };
  // One checked but untimed batch first: the worker pool, the allocator's
  // arenas and the page cache reach the state repeated solves run in.
  batch(nullptr);

  bool correct = true;
  std::vector<Metric> ms;
  if (!args.trace) {
    const bool rss_reset = reset_peak_rss();
    std::vector<double> walls;
    Timer loop;
    do {
      walls.push_back(batch(nullptr));
      setup_rounds(ctx, compiled, kSetupRoundsPerBatch);
    } while (loop.seconds() < args.seconds);
    const double rss = peak_rss_mib();
    std::cerr << "e2ebench: batch walls (s):";
    for (double x : walls) std::cerr << ' ' << x;
    std::cerr << "\n";
    if (!rss_reset)
      std::cerr << "e2ebench: VmHWM reset unsupported; peak_rss_mib is the "
                   "whole-process peak\n";
    ms.push_back({"solve_s", median(walls), "s"});
    ms.push_back({"setup_s", median(ctx.setup_samples), "s"});
    ms.push_back({"peak_rss_mib", rss, "MiB"});
  } else {
    const OptDagPartition cl = probe_compile_layers(ctx, compiled);
    const double untraced = batch(nullptr);
    Layers L;
    const double traced = batch(&L);
    // The set also runs once, traced, on the hierarchical and distributed
    // targets; the sweep's own points run on the hierarchical target.
    Layers hier_layers, D;
    if (!sweep) {
      set_batch(ctx, set, target_options(Target::Hierarchical), &hier_layers);
      set_batch(ctx, set, target_options(Target::DistributedSerial), &D);
    }
    const Layers& H = sweep ? L : hier_layers;
    const double dropped = L.dropped + hier_layers.dropped + D.dropped;
    if (dropped > 0)
      std::cerr << "e2ebench: warning: the trace rings overflowed and "
                << dropped << " events were dropped\n";

    const double flat_gbps =
        L.flat_apply_s > 0 ? L.flat_bytes / L.flat_apply_s / 1e9 : 0.0;
    const double thread_speedup = sweep ? 0.0 : flat_thread_speedup(ctx);
    double expectation_s = 0.0;
    if (sweep) {
      bool ok = true;
      expectation_s = expectation_probe(sw, ctx.n, ok);
      if (!ok) {
        std::cerr << "e2ebench: sv::expectation disagrees with the "
                     "reference energy\n";
        correct = false;
      }
    } else {
      // Phase-sum check on the hierarchical solves: HierarchicalStats
      // phases + the unexplained rest must add up to the execute wall
      // measured out here, and the phases reported through
      // Result::metrics must not exceed that wall.
      const double rest = H.execute_s - H.metric_phase_s;
      const double sum = H.hier_gather_s + H.hier_execute_s +
                         H.hier_scatter_s + rest;
      if (std::abs(sum - H.execute_s) > 1e-9 * H.execute_s || rest < 0.0) {
        std::cerr << "e2ebench: phase-sum check failed: phases + "
                     "unaccounted = "
                  << sum << " s, execute wall = " << H.execute_s << " s\n";
        correct = false;
      }
    }
    const double hier_io = H.hier_gather_s + H.hier_scatter_s;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    ms = {
        {"host.copy_gbps", copy_gbps, "GB/s"},
        {"opt.run_s", cl.opt_s, "s"},
        {"opt.gates_removed", cl.gates_removed, "count"},
        {"dag.build_s", cl.dag_s, "s"},
        {"partition.run_s", cl.partition_s, "s"},
        {"partition.parts", cl.parts, "count"},
        {"engine.compile_s", L.compile_s, "s"},
        {"engine.execute_s", L.execute_s, "s"},
        {"engine.unaccounted_s", L.execute_s - L.metric_phase_s, "s"},
        {"engine.sweep_point_s", L.sweep_point_s, "s"},
        {"engine.sweep_efficiency", L.sweep_efficiency, "ratio"},
        {"sv.flat.apply_s", L.flat_apply_s, "s"},
        {"sv.flat.gbps", flat_gbps, "GB/s"},
        {"sv.flat.bw_frac", ratio(flat_gbps, copy_gbps), "ratio"},
        {"sv.flat.thread_speedup", thread_speedup, "ratio"},
        {"sv.hier.gather_s", H.hier_gather_s, "s"},
        {"sv.hier.execute_s", H.hier_execute_s, "s"},
        {"sv.hier.scatter_s", H.hier_scatter_s, "s"},
        {"sv.hier.outer_gbps", ratio(H.hier_outer_bytes, hier_io) / 1e9,
         "GB/s"},
        {"sv.hier.inner_gbps",
         ratio(H.hier_inner_bytes, H.hier_execute_s) / 1e9, "GB/s"},
        {"sv.hier.vs_flat", sweep ? 0.0 : ratio(H.execute_s, L.execute_s),
         "ratio"},
        {"sv.expectation_s", expectation_s, "s"},
        {"sv.sample_s", L.sample_s, "s"},
        {"dist.compile_plan_s", cl.dist_compile_plan_s, "s"},
        {"dist.apply_s", D.dist_apply_s, "s"},
        {"dist.exchange_s", D.dist_exchange_s, "s"},
        {"dist.exchange_bytes", D.dist_exchange_bytes, "B"},
        {"dist.exchanges", D.dist_exchanges, "count"},
        {"dist.exchange_bw_frac",
         ratio(ratio(D.dist_permuted_bytes, D.dist_exchange_s) / 1e9,
               copy_gbps),
         "ratio"},
        {"dist.gather_s", D.dist_gather_s, "s"},
        {"parallel.regions", H.regions, "count"},
        {"parallel.region_mean_us", ratio(H.region_us, H.recorded_regions),
         "us"},
        {"trace.overhead", ratio(traced, untraced), "ratio"},
        {"trace.dropped", dropped, "count"},
    };
  }

  correct = correct && ctx.tally.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ctx.tally.attempted
            << ", \"failed\": " << ctx.tally.failed
            << ", \"metrics\": " << metrics_json(ms) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
