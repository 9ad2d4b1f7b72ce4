#include "score/reuse_index.hpp"

#include "common/error.hpp"

namespace cello::score {

ReuseIndex ReuseIndex::build(const ir::TensorDag& dag, const Schedule& sched,
                             const std::vector<i32>& base_of, size_t num_bases) {
  CELLO_CHECK_MSG(base_of.size() >= dag.tensors().size(),
                  "base mapping covers " << base_of.size() << " tensors, DAG has "
                                         << dag.tensors().size());
  ReuseIndex r;
  r.offsets_.assign(num_bases + 1, 0);

  // Counting pass: one slot per use event.  Duplicate operands of one op
  // count twice.
  for (const auto& step : sched.steps)
    for (ir::TensorId in : dag.op(step.op).inputs) ++r.offsets_[static_cast<size_t>(base_of[in]) + 1];
  for (size_t b = 1; b <= num_bases; ++b) r.offsets_[b] += r.offsets_[b - 1];

  // Stable fill in step order: positions land ascending within each base.
  r.positions_.resize(r.offsets_[num_bases]);
  std::vector<u32> fill(r.offsets_.begin(), r.offsets_.end() - 1);
  for (size_t i = 0; i < sched.steps.size(); ++i)
    for (ir::TensorId in : dag.op(sched.steps[i].op).inputs)
      r.positions_[fill[base_of[in]]++] = static_cast<i64>(i);
  return r;
}

}  // namespace cello::score
