#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "sim/result_io.hpp"

namespace cello::sim {

namespace {

const char* kJournalTag = "cello-ckpt/1";

void write_all(int fd, const char* data, size_t len, const std::string& path) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("checkpoint journal '" + path + "': write failed: " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0)
    throw Error("checkpoint journal '" + path + "': fsync failed: " + std::strerror(errno));
}

}  // namespace

std::string checkpoint_header(const SweepGrid& grid, const ShardPlan& plan) {
  std::string body = std::string(kJournalTag) + " fp=" + hex_u64(grid.fingerprint) +
                     " shard=" + std::to_string(plan.index) + "/" +
                     std::to_string(plan.count) + " mode=" + to_string(plan.mode);
  return body + " sum=" + hex_u64(fnv1a(body)) + "\n";
}

CheckpointState read_journal(const std::string& bytes, const SweepGrid& grid,
                             const ShardPlan& plan) {
  // The header must match byte-for-byte what this (grid, plan) would write:
  // tag, fingerprint, shard coordinates, mode and its own checksum.  Anything
  // else is a journal for a different sweep — a hard error, never a "tail".
  const size_t header_end = bytes.find('\n');
  if (bytes.empty())
    throw Error("checkpoint journal is empty (no header); delete it to start fresh");
  if (header_end == std::string::npos)
    throw Error("checkpoint journal: missing header line");
  const std::string header = bytes.substr(0, header_end + 1);
  const std::string expected = checkpoint_header(grid, plan);
  if (header != expected)
    throw Error("checkpoint journal header '" + bytes.substr(0, header_end) +
                "' does not match this sweep ('" + expected.substr(0, expected.size() - 1) +
                "'): the journal belongs to a different grid, shard or format");

  CheckpointState state;
  state.valid_bytes = header_end + 1;

  std::set<size_t> plan_cells(plan.cells.begin(), plan.cells.end());
  std::set<size_t> seen;
  size_t pos = state.valid_bytes;
  while (pos < bytes.size()) {
    // Frame line: "R <cell> <len> <sum>".  Any damage from here on is a torn
    // tail: stop and report, the resume path re-runs the unrecovered cells.
    const size_t frame_end = bytes.find('\n', pos);
    if (frame_end == std::string::npos) break;
    std::istringstream frame(bytes.substr(pos, frame_end - pos));
    std::string tag, cell_text, len_text, sum_text, extra;
    frame >> tag >> cell_text >> len_text >> sum_text;
    if (tag != "R" || (frame >> extra)) break;
    const auto cell = parse_decimal_u64(cell_text);
    const auto len = parse_decimal_u64(len_text);
    const auto sum = parse_hex_u64(sum_text);
    if (!cell || !len || !sum) break;
    // A bound on the remaining bytes rather than on payload_at + len, which
    // a 20-digit length would wrap.
    const size_t payload_at = frame_end + 1;
    if (*len >= bytes.size() - payload_at) break;                 // mid-record EOF
    if (bytes[payload_at + *len] != '\n') break;                  // frame/payload mismatch
    const std::string_view payload(bytes.data() + payload_at, *len);
    if (fnv1a(payload) != *sum) break;                            // garbled payload

    // The record is checksummed and intact; from here inconsistencies mean a
    // corrupt or foreign journal that happens to checksum, and fail loudly.
    if (!plan_cells.count(*cell))
      throw Error("checkpoint journal: cell " + std::to_string(*cell) +
                  " is not part of shard " + std::to_string(plan.index) + "/" +
                  std::to_string(plan.count));
    if (!seen.insert(*cell).second)
      throw Error("checkpoint journal: cell " + std::to_string(*cell) + " recorded twice");
    SweepResult result;
    try {
      result = result_from_json(json_parse(std::string(payload)));
    } catch (const std::exception& e) {
      throw Error("checkpoint journal: record for cell " + std::to_string(*cell) +
                  " passes its checksum but does not parse: " + e.what());
    }
    const CellLabels want = grid.labels(*cell);
    const CellLabels got = CellLabels::of(result);
    if (got != want)
      throw Error("checkpoint journal: record for cell " + std::to_string(*cell) + " names " +
                  got.to_string() + " but that cell is " + want.to_string());

    state.completed.emplace_back(static_cast<size_t>(*cell), std::move(result));
    pos = payload_at + *len + 1;
    state.valid_bytes = pos;
  }
  state.dropped_bytes = bytes.size() - state.valid_bytes;
  return state;
}

struct CheckpointJournal::Impl {
  std::string path;
  int fd = -1;
  std::mutex mu;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }
};

CheckpointJournal CheckpointJournal::open(const std::string& path, const SweepGrid& grid,
                                          const ShardPlan& plan, bool resume,
                                          CheckpointState* state) {
  CELLO_CHECK_MSG(!path.empty(), "checkpoint journal path is empty");
  CELLO_CHECK_MSG(state != nullptr, "checkpoint open needs a CheckpointState out-param");
  *state = CheckpointState{};

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      bytes = buf.str();
    }
  }
  if (!bytes.empty()) {
    if (!resume)
      throw Error("checkpoint journal '" + path +
                  "' already exists; pass resume (--resume) to continue from it, or delete it "
                  "to start over");
    *state = read_journal(bytes, grid, plan);
  }

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0)
    throw Error("cannot open checkpoint journal '" + path + "': " + std::strerror(errno));
  auto impl = std::make_shared<Impl>();
  impl->path = path;
  impl->fd = fd;

  if (bytes.empty()) {
    const std::string header = checkpoint_header(grid, plan);
    if (::ftruncate(fd, 0) != 0)
      throw Error("checkpoint journal '" + path + "': truncate failed: " +
                  std::strerror(errno));
    write_all(fd, header.data(), header.size(), path);
    fsync_or_throw(fd, path);
  } else {
    // Cut away the torn tail a crash mid-append left behind, then continue
    // appending after the last intact record.
    if (::ftruncate(fd, static_cast<off_t>(state->valid_bytes)) != 0)
      throw Error("checkpoint journal '" + path + "': truncate failed: " +
                  std::strerror(errno));
    if (::lseek(fd, 0, SEEK_END) < 0)
      throw Error("checkpoint journal '" + path + "': seek failed: " + std::strerror(errno));
    if (state->dropped_bytes != 0) fsync_or_throw(fd, path);
  }

  CheckpointJournal journal;
  journal.impl_ = std::move(impl);
  return journal;
}

void CheckpointJournal::append(size_t cell, const SweepResult& result) {
  CELLO_CHECK_MSG(impl_ != nullptr, "append on an inactive checkpoint journal");
  std::string payload;
  result_to_json(payload, result, 0);
  std::string record = "R " + std::to_string(cell) + " " + std::to_string(payload.size()) +
                       " " + hex_u64(fnv1a(payload)) + "\n";
  const size_t payload_at = record.size();
  record += payload;
  record += '\n';

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (const auto fault = failpoint::hit("checkpoint.append", std::to_string(cell))) {
    switch (fault->action) {
      case failpoint::Action::Throw:
        throw Error("injected fault at failpoint 'checkpoint.append' (cell " +
                    std::to_string(cell) + ")");
      case failpoint::Action::ShortWrite:
        // Crash mid-write: half the record reaches the file, then the
        // process "dies".  The loader must drop this tail.
        write_all(impl_->fd, record.data(), record.size() / 2, impl_->path);
        fsync_or_throw(impl_->fd, impl_->path);
        throw Error("injected short write at failpoint 'checkpoint.append' (cell " +
                    std::to_string(cell) + ")");
      case failpoint::Action::TornWrite: {
        // Full-length record with a garbled payload byte: framing parses but
        // the checksum must reject it.
        std::string torn = record;
        torn[payload_at + payload.size() / 2] ^= 0x20;
        write_all(impl_->fd, torn.data(), torn.size(), impl_->path);
        fsync_or_throw(impl_->fd, impl_->path);
        throw Error("injected torn write at failpoint 'checkpoint.append' (cell " +
                    std::to_string(cell) + ")");
      }
    }
  }
  write_all(impl_->fd, record.data(), record.size(), impl_->path);
  fsync_or_throw(impl_->fd, impl_->path);
}

}  // namespace cello::sim
