// Tests for the shared utility layer: CLI parsing, CSV writing,
// contracts, stopwatch, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/cli.hpp"
#include "src/util/contracts.hpp"
#include "src/util/csv.hpp"
#include "src/util/logging.hpp"
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
  EXPECT_FALSE(cli.has("x"));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "--weird-file.pgm");
  EXPECT_EQ(cli.positional()[1], "--x");
}

TEST(Cli, ParseSizeListHappyPath) {
  EXPECT_EQ(Cli::parse_size_list("1,2, 8\t16"),
            (std::vector<std::size_t>{1, 2, 8, 16}));
  EXPECT_TRUE(Cli::parse_size_list("").empty());
  EXPECT_TRUE(Cli::parse_size_list(" ,, ").empty());
}

TEST(Cli, ParseSizeListMalformedTokenIsAHardError) {
  // Silently dropping "x" from "4,x,8" would run a different sweep than
  // the one asked for — must hard-error, message naming the token.
  try {
    Cli::parse_size_list("4,x,8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "size list '4,x,8' contains malformed token 'x' "
                 "(digits only)");
  }
  EXPECT_THROW(Cli::parse_size_list("1,2x,3"), std::invalid_argument);
  EXPECT_THROW(Cli::parse_size_list("-1"), std::invalid_argument);
  EXPECT_THROW(Cli::parse_size_list("1.5"), std::invalid_argument);
}

TEST(Cli, ParseSizeListOverflowIsAHardError) {
  // 2^64 = 18446744073709551616 overflows 64-bit size_t; the previous
  // parser wrapped it around without complaint.
  try {
    Cli::parse_size_list("18446744073709551616");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "size list '18446744073709551616' token "
                 "'18446744073709551616' overflows size_t");
  }
  // The exact maximum still parses.
  EXPECT_EQ(Cli::parse_size_list("18446744073709551615"),
            (std::vector<std::size_t>{18446744073709551615ULL}));
}

TEST(Cli, ParseSizeListZeroPolicy) {
  EXPECT_EQ(Cli::parse_size_list("0,2", /*allow_zero=*/true),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_THROW(Cli::parse_size_list("0,2", /*allow_zero=*/false),
               std::invalid_argument);
}

TEST(Cli, ParseWxhHappyPath) {
  const auto size = Cli::parse_wxh("320x240");
  EXPECT_EQ(size.width, 320u);
  EXPECT_EQ(size.height, 240u);
  const auto tall = Cli::parse_wxh("1x18446744073709551615");
  EXPECT_EQ(tall.width, 1u);
  EXPECT_EQ(tall.height, 18446744073709551615ULL);
}

TEST(Cli, ParseWxhErrorsArePinned) {
  // `bench_throughput --single-image` reads its size through this
  // parser; each malformed spec must fail with a message naming it.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"320x", "size '320x' has no height (expected WxH, e.g. 320x240)"},
      {"x240", "size 'x240' has no width (expected WxH, e.g. 320x240)"},
      {"0x240", "size '0x240' width must be positive"},
      {"320x0", "size '320x0' height must be positive"},
      {"320x240x3",
       "size '320x240x3' must be WxH with exactly one 'x' (e.g. 320x240)"},
      {"320,240",
       "size '320,240' must be WxH with exactly one 'x' (e.g. 320x240)"},
      {"32a0x240", "size '32a0x240' width '32a0' is not a decimal integer"},
      {"320x-240", "size '320x-240' height '-240' is not a decimal integer"},
      {"18446744073709551616x240",
       "size '18446744073709551616x240' width '18446744073709551616' "
       "overflows size_t"},
  };
  for (const auto& [spec, message] : cases) {
    SCOPED_TRACE(spec);
    try {
      Cli::parse_wxh(spec);
      ADD_FAILURE() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
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

TEST(Logging, LevelFiltering) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log(LogLevel::kDebug, "should not crash (filtered)");
  set_log_level(before);
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

TEST(Logging, ConcurrentLogCallsNeverTearLines) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  constexpr int kThreads = 8;
  constexpr int kLines = 250;
  // Distinct single-character filler per thread: a torn write would
  // splice two fillers (or a header) into one captured line.
  std::vector<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    expected.push_back("[info] writer-" + std::to_string(t) + "-" +
                       std::string(60, static_cast<char>('a' + t)));
  }
  testing::internal::CaptureStderr();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &expected] {
      const std::string payload = expected[t].substr(7);  // strip "[info] "
      for (int i = 0; i < kLines; ++i) {
        log(LogLevel::kInfo, payload);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const std::string captured = testing::internal::GetCapturedStderr();
  set_log_level(before);
  std::istringstream stream(captured);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(stream, line)) {
    ++lines;
    ASSERT_NE(std::find(expected.begin(), expected.end(), line),
              expected.end())
        << "torn or corrupted log line: '" << line << "'";
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(kThreads) * kLines);
}

}  // namespace
