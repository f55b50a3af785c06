// Tests for the shared utility layer: CLI parsing, CSV writing,
// contracts, stopwatch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/util/cli.hpp"
#include "src/util/contracts.hpp"
#include "src/util/csv.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using namespace seghdc::util;

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedValue) {
  const auto cli = make_cli({"--dim", "800"});
  EXPECT_EQ(cli.get_int("dim", 0), 800);
}

TEST(Cli, ParsesEqualsValue) {
  const auto cli = make_cli({"--dim=1234"});
  EXPECT_EQ(cli.get_int("dim", 0), 1234);
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make_cli({"--paper"});
  EXPECT_TRUE(cli.get_flag("paper"));
  EXPECT_FALSE(cli.get_flag("absent"));
}

TEST(Cli, ExplicitBooleanValues) {
  EXPECT_TRUE(make_cli({"--x=true"}).get_flag("x"));
  EXPECT_TRUE(make_cli({"--x=1"}).get_flag("x"));
  EXPECT_TRUE(make_cli({"--x=on"}).get_flag("x"));
  EXPECT_FALSE(make_cli({"--x=false"}).get_flag("x"));
  EXPECT_FALSE(make_cli({"--x=0"}).get_flag("x"));
  EXPECT_FALSE(make_cli({"--x=off"}).get_flag("x"));
}

TEST(Cli, BadBooleanThrows) {
  EXPECT_THROW(make_cli({"--x=maybe"}).get_flag("x"),
               std::invalid_argument);
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto cli = make_cli({});
  EXPECT_EQ(cli.get("name", "default"), "default");
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 2.5), 2.5);
}

TEST(Cli, BadIntegerThrows) {
  EXPECT_THROW(make_cli({"--n", "abc"}).get_int("n", 0),
               std::invalid_argument);
  EXPECT_THROW(make_cli({"--n", "12x"}).get_int("n", 0),
               std::invalid_argument);
}

TEST(Cli, DoubleParsing) {
  EXPECT_DOUBLE_EQ(make_cli({"--a", "0.25"}).get_double("a", 0), 0.25);
  EXPECT_THROW(make_cli({"--a", "x"}).get_double("a", 0),
               std::invalid_argument);
}

TEST(Cli, PositionalArguments) {
  const auto cli = make_cli({"input.pgm", "--dim", "8", "output.pgm"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.pgm");
  EXPECT_EQ(cli.positional()[1], "output.pgm");
}

TEST(Cli, ConsecutiveFlagsDoNotEatEachOther) {
  const auto cli = make_cli({"--paper", "--dim", "99"});
  EXPECT_TRUE(cli.get_flag("paper"));
  EXPECT_EQ(cli.get_int("dim", 0), 99);
}

TEST(Cli, RejectUnknownThrowsOnStray) {
  const auto cli = make_cli({"--oops", "1"});
  EXPECT_THROW(cli.reject_unknown({"dim"}), std::invalid_argument);
  EXPECT_NO_THROW(cli.reject_unknown({"oops"}));
}

TEST(Cli, EmptyValueThroughIntGetterIsAHardError) {
  // `--dim --paper` parses as two flags (value swallowed); reading dim
  // through a value getter must not silently become the fallback.
  const auto cli = make_cli({"--dim", "--paper"});
  try {
    cli.get_int("dim", 512);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--dim expects an integer value but none was given "
                 "(a following --option? use --dim=value)");
  }
}

TEST(Cli, EmptyValueThroughDoubleGetterIsAHardError) {
  const auto cli = make_cli({"--beta", "--paper"});
  try {
    cli.get_double("beta", 4.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "--beta expects a numeric value but none was given "
                 "(a following --option? use --beta=value)");
  }
}

TEST(Cli, ExplicitEmptyEqualsValueAlsoThrowsThroughValueGetters) {
  EXPECT_THROW(make_cli({"--dim="}).get_int("dim", 1),
               std::invalid_argument);
  EXPECT_THROW(make_cli({"--d="}).get_double("d", 1.0),
               std::invalid_argument);
  // ...but is still a perfectly fine bare flag.
  EXPECT_TRUE(make_cli({"--dim="}).get_flag("dim"));
}

TEST(Cli, DoubleDashEndsOptionParsing) {
  const auto cli = make_cli({"--dim", "8", "--", "--weird-file.pgm", "--x"});
  EXPECT_EQ(cli.get_int("dim", 0), 8);
  EXPECT_EQ(cli.get("x", "absent"), "absent");
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "--weird-file.pgm");
  EXPECT_EQ(cli.positional()[1], "--x");
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "seghdc_csv_test.csv")
          .string();
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "2"});
    csv.row({"x,y", "he said \"hi\""});
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",\"he said \"\"hi\"\"\"");
  std::filesystem::remove(path);
}

TEST(Csv, RowWidthMismatchThrows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "seghdc_csv_test2.csv")
          .string();
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, UnopenablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

TEST(Csv, EnsureDirectoryCreatesNested) {
  const auto base = std::filesystem::temp_directory_path() /
                    "seghdc_dir_test" / "nested" / "deep";
  ensure_directory(base.string());
  EXPECT_TRUE(std::filesystem::is_directory(base));
  std::filesystem::remove_all(
      std::filesystem::temp_directory_path() / "seghdc_dir_test");
}

TEST(Contracts, ExpectsThrowsInvalidArgument) {
  EXPECT_NO_THROW(expects(true, "fine"));
  EXPECT_THROW(expects(false, "broken"), std::invalid_argument);
}

TEST(Contracts, EnsuresThrowsLogicError) {
  EXPECT_NO_THROW(ensures(true, "fine"));
  EXPECT_THROW(ensures(false, "broken"), std::logic_error);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  const double t0 = watch.seconds();
  EXPECT_GE(t0, 0.0);
  // Busy-wait a tiny amount; elapsed must be monotone non-decreasing.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + 1.0;
  }
  EXPECT_GE(watch.seconds(), t0);
  watch.reset();
  EXPECT_LT(watch.seconds(), 10.0);
}

TEST(Stopwatch, ConcurrentReadsAreConsistent) {
  // seconds() is a pure read of a steady clock: many threads hammering
  // one stopwatch must each see monotone non-decreasing, non-negative
  // elapsed time (and TSan must stay quiet).
  const Stopwatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&watch] {
      double last = 0.0;
      for (int i = 0; i < 10000; ++i) {
        const double now = watch.seconds();
        ASSERT_GE(now, last);
        last = now;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
}

}  // namespace
