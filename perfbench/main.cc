// perfbench: the repository benchmark binary.
//
//   perfbench --workload <trickle|drift|served> --seed <n> --seconds <s>
//             --trace <0|1>
//
// Prints a `perfbench stamp {...}` line (host facts, input digests, sample
// counts) and then, as the last line of stdout, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 1 when an output check failed, 2 on bad usage.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench.h"

namespace {

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <trickle|drift|served> --seed "
               "<n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (options.seconds <= 0.0) return Usage("--seconds must be positive");

  perfbench::RunResult result;
  if (options.workload == "trickle") {
    result = perfbench::RunTrickle(options);
  } else if (options.workload == "drift") {
    result = perfbench::RunDrift(options);
  } else if (options.workload == "served") {
    result = perfbench::RunServed(options);
  } else {
    return Usage("unknown --workload");
  }

  for (const std::string& failure : result.check_failures) {
    std::cerr << "perfbench: check failed: " << failure << "\n";
  }
  const bool correct = result.check_failures.empty();

  std::string stamp = "{";
  for (const auto& [key, value] : result.stamp) {
    if (stamp.size() > 1) stamp += ",";
    stamp += Quote(key) + ":" + Quote(value);
  }
  std::cout << "perfbench stamp " << stamp << "}\n";

  std::string metrics = "{";
  for (const auto& [name, m] : result.metrics) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += Quote(name) + ": {\"value\": " + Num(m.value) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  metrics += "}";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return correct ? 0 : 1;
}
