// Robustness tests for the MatrixMarket reader (sparse/matrix_market):
// malformed banners, truncated bodies, hostile size lines and out-of-range
// entries must all produce clean typed cello::Error, never UB or bad_alloc.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using namespace cello;

sparse::CsrMatrix parse(const std::string& text) {
  std::istringstream in(text);
  return sparse::read_matrix_market(in);
}

TEST(MatrixMarketRobustness, WellFormedInputStillParses) {
  // Positive control: the hardening must not reject valid files.
  const auto m = parse(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 3 3\n"
      "1 1 1.5\n"
      "2 3 -2\n"
      "3 2 0.25\n");
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 3);
}

TEST(MatrixMarketRobustness, PatternAndSymmetricStillParse) {
  const auto m = parse(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  EXPECT_EQ(m.nnz(), 3);  // (2,1) mirrored to (1,2); diagonal (3,3) not
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expect;  ///< substring the error message must contain
};

TEST(MatrixMarketRobustness, MalformedInputsFailCleanlyAndNameTheProblem) {
  const BadCase cases[] = {
      {"empty stream", "", "empty matrix market stream"},
      {"wrong banner", "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n",
       "not a MatrixMarket file"},
      {"wrong object", "%%MatrixMarket vector coordinate real general\n1 1 0\n",
       "unsupported MatrixMarket object"},
      {"array format", "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
       "coordinate format"},
      {"complex field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
       "unsupported MatrixMarket field"},
      {"skew symmetry", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1\n",
       "unsupported symmetry"},
      {"eof before size line", "%%MatrixMarket matrix coordinate real general\n% only\n",
       "ends before the size line"},
      {"garbled size line", "%%MatrixMarket matrix coordinate real general\nthree by three\n",
       "bad size line"},
      {"negative dims", "%%MatrixMarket matrix coordinate real general\n-3 3 1\n1 1 1\n",
       "bad size line"},
      {"nnz beyond capacity", "%%MatrixMarket matrix coordinate real general\n2 2 9\n"
       "1 1 1\n",
       "size line claims"},
      // The largest accepted shape, full: the reservation stays capped.
      {"huge lying nnz", "%%MatrixMarket matrix coordinate real general\n"
       "2147483647 2147483647 4611686014132420609\n1 1 1\n",
       "truncated matrix market body"},
      {"rows beyond 2^31-1", "%%MatrixMarket matrix coordinate real general\n"
       "1000000000000 1 0\n",
       "size line claims a 1000000000000 x 1 matrix"},
      {"cols beyond 2^31-1", "%%MatrixMarket matrix coordinate real general\n"
       "1 2147483648 0\n",
       "size line claims a 1 x 2147483648 matrix"},
      {"truncated body", "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1\n",
       "truncated matrix market body at entry 1"},
      {"malformed entry", "%%MatrixMarket matrix coordinate real general\n3 3 1\nx y z\n",
       "malformed entry 0"},
      {"missing value", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2\n",
       "missing its value"},
      {"row out of range", "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1\n",
       "row 4 outside [1, 3]"},
      {"zero-based col", "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 0 1\n",
       "col 0 outside [1, 3]"},
  };
  for (const auto& c : cases) {
    try {
      parse(c.text);
      FAIL() << c.name << ": expected cello::Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    } catch (const std::exception& e) {
      FAIL() << c.name << ": wrong exception type: " << e.what();
    }
  }
}

TEST(MatrixMarketRobustness, MissingFileNamesThePath) {
  try {
    sparse::read_matrix_market_file("/tmp/cello_definitely_not_here.mtx");
    FAIL() << "expected cello::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/tmp/cello_definitely_not_here.mtx"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
