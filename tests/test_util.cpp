// Unit tests for the util substrate: engineering-notation parsing,
// string helpers, CSV/table writers, RNG determinism, and the thread
// pool's dependency-ordered task-graph executor.

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace wu = waveletic::util;

TEST(Units, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(wu::parse_eng("8.5"), 8.5);
  EXPECT_DOUBLE_EQ(wu::parse_eng("-3"), -3.0);
  EXPECT_DOUBLE_EQ(wu::parse_eng("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(wu::parse_eng("  42 "), 42.0);
}

TEST(Units, ParsesEngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(wu::parse_eng("4.8f"), 4.8e-15);
  EXPECT_DOUBLE_EQ(wu::parse_eng("100fF"), 100e-15);
  EXPECT_DOUBLE_EQ(wu::parse_eng("150ps"), 150e-12);
  EXPECT_DOUBLE_EQ(wu::parse_eng("1n"), 1e-9);
  EXPECT_DOUBLE_EQ(wu::parse_eng("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(wu::parse_eng("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(wu::parse_eng("1k"), 1e3);
  EXPECT_DOUBLE_EQ(wu::parse_eng("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(wu::parse_eng("1g"), 1e9);
}

TEST(Units, SuffixIsCaseInsensitive) {
  EXPECT_DOUBLE_EQ(wu::parse_eng("100FF"), 100e-15);
  EXPECT_DOUBLE_EQ(wu::parse_eng("2MEG"), 2e6);
  EXPECT_DOUBLE_EQ(wu::parse_eng("5K"), 5e3);
}

TEST(Units, RejectsMalformedInput) {
  EXPECT_THROW(wu::parse_eng(""), wu::Error);
  EXPECT_THROW(wu::parse_eng("abc"), wu::Error);
  EXPECT_THROW(wu::parse_eng("1.2.3"), wu::Error);
  EXPECT_THROW(wu::parse_eng("4.8f!"), wu::Error);
  double out = 0.0;
  EXPECT_FALSE(wu::try_parse_eng("zz1", out));
}

TEST(Units, FormatEngRoundTripsMagnitudes) {
  EXPECT_EQ(wu::format_eng(4.8e-15, "F"), "4.8fF");
  EXPECT_EQ(wu::format_eng(8.5, "Ohm"), "8.5Ohm");
  EXPECT_EQ(wu::format_eng(1.5e-10, "s"), "150ps");
  EXPECT_EQ(wu::format_eng(0.0, "V"), "0V");
}

TEST(Units, FormatPs) {
  EXPECT_EQ(wu::format_ps(1.5e-10), "150.0");
  EXPECT_EQ(wu::format_ps(9.2e-12), "9.2");
  EXPECT_EQ(wu::format_ps(1.234e-12, 2), "1.23");
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(wu::trim("  a b "), "a b");
  EXPECT_EQ(wu::trim(""), "");
  const auto parts = wu::split("a, b,,c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepEmptyPreservesFields) {
  const auto parts = wu::split_keep_empty("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(wu::to_lower("AbC"), "abc");
  EXPECT_TRUE(wu::iequals("INVX4", "invx4"));
  EXPECT_FALSE(wu::iequals("a", "ab"));
  EXPECT_TRUE(wu::starts_with("cell_rise", "cell"));
  EXPECT_TRUE(wu::ends_with("delay.lib", ".lib"));
}

TEST(Strings, Join) {
  EXPECT_EQ(wu::join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(wu::join({}, "/"), "");
}

TEST(Error, FmtAssemblesMessage) {
  const auto e = wu::Error::fmt("node ", 3, " missing");
  EXPECT_STREQ(e.what(), "node 3 missing");
  EXPECT_THROW(wu::require(false, "boom"), wu::Error);
  EXPECT_NO_THROW(wu::require(true, "fine"));
}

TEST(Csv, WritesColumnsRowMajor) {
  wu::CsvWriter csv;
  csv.add_column("t", {1.0, 2.0});
  csv.add_text_column("name", {"x", "y"});
  std::ostringstream os;
  csv.write(os);
  EXPECT_EQ(os.str(), "t,name\n1,x\n2,y\n");
}

TEST(Csv, PadsShortColumns) {
  wu::CsvWriter csv;
  csv.add_column("a", {1.0});
  csv.add_column("b", {1.0, 2.0});
  std::ostringstream os;
  csv.write(os);
  EXPECT_EQ(os.str(), "a,b\n1,1\n,2\n");
}

TEST(Table, RendersAlignedGrid) {
  wu::Table t({"Method", "Avg"});
  t.add_row({"SGDP", "9.2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| Method | Avg |"), std::string::npos);
  EXPECT_NE(s.find("| SGDP   | 9.2 |"), std::string::npos);
}

TEST(Table, RejectsAridityMismatch) {
  wu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), wu::Error);
}

TEST(Rng, DeterministicAcrossInstances) {
  wu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformStaysInRange) {
  wu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  wu::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(ThreadPool, TaskGraphExecutorRunsDagsAndPropagatesErrors) {
  // A diamond DAG per tile: 0 → {1, 2} → 3.  Records completion order
  // constraints rather than a fixed schedule.
  const std::vector<uint32_t> indegree = {0, 1, 1, 2};
  const std::vector<std::vector<uint32_t>> successors = {
      {1, 2}, {3}, {3}, {}};
  for (const int threads : {1, 2, 4}) {
    wu::ThreadPool pool(threads);
    const size_t tiles = 5;
    std::vector<std::atomic<int>> done(4 * tiles);
    for (auto& d : done) d.store(0);
    std::atomic<int> violations{0};
    pool.run_graph(
        {indegree, successors, tiles}, [&](size_t, size_t task) {
          const size_t tile = task / 4;
          const size_t local = task % 4;
          if (local == 1 || local == 2) {
            if (done[tile * 4 + 0].load() == 0) violations++;
          }
          if (local == 3) {
            if (done[tile * 4 + 1].load() == 0 ||
                done[tile * 4 + 2].load() == 0) {
              violations++;
            }
          }
          done[task].store(1);
        });
    for (auto& d : done) EXPECT_EQ(d.load(), 1);
    EXPECT_EQ(violations.load(), 0);

    // Exceptions cancel the remainder and surface on the caller.
    EXPECT_THROW(pool.run_graph({indegree, successors, tiles},
                                [&](size_t, size_t task) {
                                  if (task == 2) throw wu::Error("boom");
                                }),
                 wu::Error);
    // The pool stays usable afterwards.
    std::atomic<int> count{0};
    pool.run_graph({indegree, successors, 1},
                   [&](size_t, size_t) { count++; });
    EXPECT_EQ(count.load(), 4);
  }
}
