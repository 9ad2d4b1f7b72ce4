#include "common/stats.hpp"

#include <cmath>

#include "common/error.hpp"

namespace cello {

double geomean(std::span<const double> xs) {
  CELLO_CHECK(!xs.empty());
  double s = 0;
  for (double x : xs) {
    CELLO_CHECK_MSG(x > 0, "geomean requires positive values, got " << x);
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

}  // namespace cello
