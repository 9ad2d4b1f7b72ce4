#include "sim/report.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/format.hpp"

namespace cello::sim {

std::string per_op_report(const RunMetrics& m, const AcceleratorConfig& arch,
                          size_t max_rows) {
  TextTable t({"op", "MACs", "DRAM bytes", "AI (MACs/B)", "bound"});
  size_t shown = 0;
  for (const auto& row : m.per_op) {
    if (shown++ >= max_rows) break;
    const double compute_s = arch.compute_seconds(row.macs);
    const double dram_s = arch.dram_seconds(row.dram_bytes);
    const double ai = row.dram_bytes > 0
                          ? static_cast<double>(row.macs) / static_cast<double>(row.dram_bytes)
                          : 0.0;
    t.add_row({row.op, std::to_string(row.macs),
               format_bytes(static_cast<double>(row.dram_bytes)), format_double(ai, 2),
               dram_s > compute_s ? "memory" : "compute"});
  }
  std::ostringstream os;
  os << t.to_string();
  if (m.per_op.size() > max_rows)
    os << "... (" << m.per_op.size() - max_rows << " more ops)\n";
  return os.str();
}

std::string per_tensor_report(const RunMetrics& m, size_t max_rows) {
  std::vector<std::pair<std::string, Bytes>> rows(m.traffic_by_tensor.begin(),
                                                  m.traffic_by_tensor.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  TextTable t({"tensor", "DRAM traffic", "share"});
  size_t shown = 0;
  for (const auto& [base, bytes] : rows) {
    if (shown++ >= max_rows) break;
    const double share =
        m.dram_bytes > 0 ? 100.0 * static_cast<double>(bytes) / static_cast<double>(m.dram_bytes)
                         : 0.0;
    t.add_row({base, format_bytes(static_cast<double>(bytes)), format_double(share, 1) + "%"});
  }
  return t.to_string();
}

}  // namespace cello::sim
