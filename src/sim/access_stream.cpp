#include "sim/access_stream.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/policies/access_gen.hpp"
#include "sim/policies/schedule_policy.hpp"

namespace cello::sim {

namespace {

// FNV-1a lane pair: two independent 64-bit accumulators over the same words.
// Signatures gate the period search; the search result is additionally
// confirmed by comparing the actual spans of the first two occurrences, so a
// collision would have to survive both to matter.
struct Sig {
  u64 a = 0xcbf29ce484222325ull;
  u64 b = 0x2545f4914f6cdd1dull;
  void mix(u64 v) {
    a = (a ^ v) * 0x100000001b3ull;
    b = (b ^ v) * 0xc2b2ae3d27d4eb4full;
  }
  bool operator==(const Sig&) const = default;
};

/// Everything span emission reads about one scheduled op, hashed.  Two steps
/// with equal signatures emit equal spans: emit_op_accesses is a pure
/// function of (these fields, the shared matrix, the shared arch).
Sig step_signature(const ir::TensorDag& dag, const AddressMap& map, const ir::EinsumOp& op,
                   const std::vector<ir::TensorId>& inputs, bool service_output) {
  Sig s;
  for (const auto& r : op.ranks) s.mix(static_cast<u64>(r.size));
  for (ir::TensorId in : inputs) {
    const ir::TensorDesc& t = dag.tensor(in);
    s.mix(map.of(t.id).start);
    s.mix(static_cast<u64>(t.bytes()));
    s.mix(static_cast<u64>(t.storage));
    s.mix(static_cast<u64>(t.nnz));
    s.mix(static_cast<u64>(t.dims.empty() ? 1 : t.dims.front()));
  }
  const ir::TensorDesc& out = dag.tensor(op.output);
  s.mix(service_output ? 1 : 0);
  s.mix(map.of(out.id).start);
  s.mix(static_cast<u64>(out.bytes()));
  s.mix(static_cast<u64>(out.dims.empty() ? 1 : out.dims.front()));
  return s;
}

/// Best (prefix, L, count) decomposition: scheduled ops = prefix + L x count +
/// suffix with the periodic region's signatures exactly repeating.  Minimizes
/// materialized steps (prefix + L + suffix); count < 2 means "no period".
struct Period {
  size_t prefix = 0, steps = 0, count = 0;
};
Period find_period(const std::vector<Sig>& sig) {
  const size_t n = sig.size();
  Period best;
  size_t best_mat = n;
  // O(n * L_max) scan; capped so pathological schedules don't stall capture.
  constexpr size_t kMaxSteps = 65536, kMaxL = 2048;
  if (n < 4 || n > kMaxSteps) return best;
  for (size_t L = 1; L <= std::min(n / 2, kMaxL); ++L) {
    // Longest run of consecutive i with sig[i] == sig[i - L].
    size_t run_lo = 0, run_hi = 0;
    for (size_t i = L; i < n;) {
      if (sig[i] == sig[i - L]) {
        size_t j = i + 1;
        while (j < n && sig[j] == sig[j - L]) ++j;
        if (j - i > run_hi - run_lo) {
          run_lo = i;
          run_hi = j;
        }
        i = j;
      } else {
        ++i;
      }
    }
    if (run_hi == run_lo) continue;
    const size_t a = run_lo - L;  // periodic region start
    const size_t count = (run_hi - a) / L;
    if (count < 2) continue;
    const size_t mat = a + L + (n - a - count * L);
    if (mat < best_mat) {
      best_mat = mat;
      best = {a, L, count};
    }
  }
  return best;
}

}  // namespace

AccessStream AccessStream::capture(const ir::TensorDag& dag, const score::Schedule& sched,
                                   const AddressMap& map, const sparse::CsrMatrix* matrix,
                                   const AcceleratorConfig& arch, const Router& router) {
  AccessStream s;
  s.line_bytes = arch.line_bytes;
  s.rf_bytes = arch.rf_bytes;
  const size_t n = sched.steps.size();
  s.schedule_steps = n;
  if (n == 0) return s;

  // ---- pass 1: resolve each step's serviced inputs + signature ----
  // The simulator's serviced-operand rule; only Route::Buffer operands reach
  // the cache.
  std::vector<ir::TensorId> in_flat;
  std::vector<u32> in_end(n);
  std::vector<u8> svc_out(n);
  std::vector<Sig> sig(n);
  std::vector<ir::TensorId> step_inputs;
  for (size_t i = 0; i < n; ++i) {
    const ir::EinsumOp& op = dag.op(sched.steps[i].op);
    step_inputs.clear();
    router.for_each_serviced_input(op, [&](ir::TensorId in, Route route) {
      if (route == Route::Buffer) step_inputs.push_back(in);
    });
    svc_out[i] = router.route_output(op) == Route::Buffer;
    sig[i] = step_signature(dag, map, op, step_inputs, svc_out[i] != 0);
    in_flat.insert(in_flat.end(), step_inputs.begin(), step_inputs.end());
    in_end[i] = static_cast<u32>(in_flat.size());
  }

  // ---- pass 2: span emission (prefix + one period + suffix) ----
  OpTrace t;
  t.dag = &dag;
  t.map = &map;
  t.matrix = matrix;
  OpAccessScratch scratch;
  auto emit_step = [&](size_t i) {
    const ir::EinsumOp& op = dag.op(sched.steps[i].op);
    t.op = &op;
    t.service_output = svc_out[i] != 0;
    const u32 b = i == 0 ? 0 : in_end[i - 1];
    t.inputs.assign(in_flat.begin() + b, in_flat.begin() + in_end[i]);
    emit_op_accesses(
        t, arch, scratch,
        [&](Addr a, Bytes l, bool w) {
          if (l != 0) s.push_span(a, l, w);
        });
    s.end_step();
  };

  Period p = find_period(sig);
  if (p.count >= 2) {
    for (size_t i = 0; i < p.prefix; ++i) emit_step(i);
    const size_t period_span_begin = s.addr.size();
    const size_t period_op_begin = s.op_end.size();
    for (size_t i = p.prefix; i < p.prefix + p.steps; ++i) emit_step(i);
    const size_t period_span_end = s.addr.size();
    const size_t period_op_end = s.op_end.size();

    // Confirm the signature match with the real thing: occurrence 2 must
    // emit byte-identical spans at the same op boundaries.  (Induction to
    // the remaining occurrences rides on the two-lane signatures.)
    for (size_t i = p.prefix + p.steps; i < p.prefix + 2 * p.steps; ++i) emit_step(i);
    const size_t nspans = period_span_end - period_span_begin;
    bool periodic =
        s.addr.size() - period_span_end == nspans &&
        std::equal(s.addr.begin() + period_span_begin, s.addr.begin() + period_span_end,
                   s.addr.begin() + period_span_end) &&
        std::equal(s.len.begin() + period_span_begin, s.len.begin() + period_span_end,
                   s.len.begin() + period_span_end) &&
        std::equal(s.write.begin() + period_span_begin, s.write.begin() + period_span_end,
                   s.write.begin() + period_span_end);
    if (periodic)
      for (size_t k = 0; k < p.steps; ++k)
        periodic = periodic && s.op_end[period_op_end + k] - period_span_end ==
                                   s.op_end[period_op_begin + k] - period_span_begin;

    if (periodic) {
      // Drop the verification block and keep the periodic decomposition.
      s.addr.resize(period_span_end);
      s.len.resize(period_span_end);
      s.write.resize(period_span_end);
      s.op_end.resize(period_op_end);
      for (size_t i = p.prefix + p.count * p.steps; i < n; ++i) emit_step(i);
      s.prefix_steps = p.prefix;
      s.period_steps = p.steps;
      s.period_count = p.count;
      s.suffix_steps = n - p.prefix - p.count * p.steps;
      return s;
    }
    // The signatures lied (or the emission is genuinely step-dependent):
    // keep the spans emitted so far and fall through to linear.
    for (size_t i = p.prefix + 2 * p.steps; i < n; ++i) emit_step(i);
    s.prefix_steps = n;
    return s;
  }

  for (size_t i = 0; i < n; ++i) emit_step(i);
  s.prefix_steps = n;
  return s;
}

}  // namespace cello::sim
