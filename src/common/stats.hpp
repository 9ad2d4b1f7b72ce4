// Statistics helper used by the figure drivers when aggregating per-dataset
// results (geomean speedups).
#pragma once

#include <span>

namespace cello {

double geomean(std::span<const double> xs);

}  // namespace cello
