// perfbench: the repository benchmark binary.
//
//   perfbench --workload paper_table1|serve_table2
//             --seed N --seconds S --trace 0|1 [--tiny] [--source-id ID]
//   perfbench --selftest
//
// Prints one "metric <name> <value> <unit>" line per reported metric, a
// {"details": ...} line (provenance, configs, per-rate breakdowns), and
// last the result line {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int selftest() {
  int checks = 0;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::printf("selftest FAILED: %s\n", what);
    }
  };

  // The schedule is a pure function of (count, rate, seed).
  const auto a = poisson_schedule(200, 8.0, 7);
  expect(a == poisson_schedule(200, 8.0, 7), "same seed, same schedule");
  expect(a != poisson_schedule(200, 8.0, 8), "other seed, other schedule");
  expect(std::is_sorted(a.begin(), a.end()), "schedule is sorted");
  expect(a.front() >= 0.0 && a.back() < 200.0 / 8.0,
         "schedule stays inside count / rate");
  // Stratified gaps: two seeds share all but the two gaps outside the
  // first and last arrival, so close arrivals are equally common.
  const auto close_arrivals = [](const std::vector<double>& due, double within) {
    std::size_t n = 0;
    for (std::size_t i = 1; i < due.size(); ++i) {
      n += due[i] - due[i - 1] < within ? 1 : 0;
    }
    return n;
  };
  const auto b = poisson_schedule(200, 8.0, 8);
  bool same_gaps = true;
  for (const double within : {0.01, 0.05, 0.125, 0.3}) {
    const auto na = close_arrivals(a, within);
    const auto nb = close_arrivals(b, within);
    same_gaps = same_gaps && (na > nb ? na - nb : nb - na) <= 2;
  }
  expect(same_gaps, "every seed offers the same gap distribution");

  // Balanced picks: a pure function of the seed, every index equally often.
  const auto picks = balanced_picks(70, 32, 7);
  expect(picks == balanced_picks(70, 32, 7), "same seed, same picks");
  std::vector<std::size_t> uses(32, 0);
  for (const auto p : picks) {
    ++uses[p];
  }
  expect(picks.size() == 70 &&
             *std::max_element(uses.begin(), uses.end()) -
                     *std::min_element(uses.begin(), uses.end()) <=
                 1,
         "picks use every index equally often, to within one");

  // The tail rule: highest percentile with >= 10 samples beyond it.
  expect(tail_percentile(40) == 75, "n=40 -> p75");
  expect(tail_percentile(72) == 86, "n=72 -> p86");
  expect(tail_percentile(20) == 50, "n=20 -> p50");
  expect(tail_percentile(224) == 95, "n=224 -> p95");
  expect(tail_percentile(1000) == 99, "n=1000 -> p99");
  expect(tail_percentile(19) == 47, "n=19 -> p47");
  expect(!tail_percentile(10).has_value(), "n=10 has no tail percentile");
  bool rule_holds = true;
  for (std::size_t n = 11; n <= 2000; ++n) {
    const int p = *tail_percentile(n);
    rule_holds = rule_holds && n - nearest_rank(p, n) >= kTailMinBeyond &&
                 (p == 99 || n - nearest_rank(p + 1, n) < kTailMinBeyond);
  }
  expect(rule_holds, "tail rule is the highest qualifying percentile");
  std::vector<double> ramp;
  for (int i = 1; i <= 40; ++i) {
    ramp.push_back(i);
  }
  expect(tail_of(ramp).value == 30.0 && tail_of(ramp).percentile == 75,
         "tail of 1..40 is the 30th sample");

  // The label check trips on any perturbation.
  img::LabelMap labels(16, 8, 1, 0);
  for (std::size_t p = 0; p < labels.pixel_count(); ++p) {
    labels.pixels()[p] = static_cast<std::uint32_t>((p / 5) % 2);
  }
  const std::uint64_t hash = checked_label_hash(labels, 16, 8, 2);
  expect(hash != 0, "valid label map hashes");
  expect(checked_label_hash(labels, 16, 8, 2, hash) == hash,
         "matching hash passes");
  img::LabelMap perturbed = labels;
  perturbed(3, 4) ^= 1U;
  expect(checked_label_hash(perturbed, 16, 8, 2, hash) == 0,
         "one flipped label trips the hash check");
  perturbed = labels;
  perturbed(0, 0) = 2;
  expect(checked_label_hash(perturbed, 16, 8, 2) == 0,
         "out-of-range label trips the check");
  expect(checked_label_hash(labels, 8, 16, 2) == 0,
         "wrong geometry trips the check");

  std::printf("selftest: %d/%d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--source-id ID]\n"
               "       perfbench --selftest\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      return selftest();
    }
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--source-id") {
        args.source_id = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    return usage("--workload is required");
  }
  if (!(args.seconds > 0.0) || !std::isfinite(args.seconds)) {
    return usage("--seconds must be positive");
  }

  Report (*run)(const Args&) = nullptr;
  if (args.workload == "paper_table1") {
    run = run_paper_table1;
  } else if (args.workload == "serve_table2") {
    run = run_serve_table2;
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  try {
    const Report report = run(args);
    report.print(args.trace);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
