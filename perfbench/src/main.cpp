// perfbench — the repository's benchmark program.
//
//   perfbench --workload <run16_snug|fig9_cold|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--scale tiny] [--corrupt digest|answer]
//
// One process, linked against snug_core.  The seed only generates
// inputs.  --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 runs the same ops with every other one traced (spans kept in
// memory and written under the work dir at exit) and replays the layers
// one at a time for the per-layer list.  Every run prints the host, the build
// type and the commit, then one JSON object as the last stdout line.
// --scale tiny and --corrupt exist for the benchmark's own tests.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/str.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<run16_snug|fig9_cold|serve_mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--scale full|tiny] "
               "[--corrupt digest|answer]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  o.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed " + value);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0) ||
          o.seconds > 600.0) {
        usage("bad --seconds " + value);
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale " + value);
      o.tiny = value == "tiny";
    } else if (key == "--corrupt") {
      if (value != "digest" && value != "answer") {
        usage("bad --corrupt " + value);
      }
      o.corrupt = value;
    } else {
      usage("unknown option " + key);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string l2_size() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index2/size");
  std::string size;
  if (in >> size) return size;
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return bytes > 0 ? snug::strf("%ldK", bytes / 1024) : "unknown";
}

void print_json(const Result& r, const std::vector<Metric>& metrics) {
  bool finite = true;
  std::string body;
  for (const Metric& m : metrics) {
    finite = finite && std::isfinite(m.value);
    if (!body.empty()) body += ", ";
    body += snug::strf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       m.name.c_str(),
                       std::isfinite(m.value) ? m.value : 0.0,
                       m.unit.c_str());
  }
  const bool correct = r.correct() && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), body.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "run16_snug") {
    run = run16_snug;
  } else if (opt.workload == "fig9_cold") {
    run = fig9_cold;
  } else if (opt.workload == "serve_mixed") {
    run = serve_mixed;
  } else {
    usage("unknown workload " + opt.workload);
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("host: nproc=%u cpu=\"%s\" l2=%s build=%s commit=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              l2_size().c_str(), PERFBENCH_BUILD_TYPE,
              commit != nullptr ? commit : "unknown");
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.tiny ? "tiny" : "full");
  std::fflush(stdout);

  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(opt.work_dir, ec);
  if (ec) usage("cannot create work dir " + opt.work_dir);

  const Result r = run(opt);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (opt.trace) {
    const std::string path =
        (fs::path(opt.work_dir) /
         snug::strf("spans-%s-seed%llu.jsonl", opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed)))
            .string();
    if (!tracer().write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %zu written to %s\n", tracer().size(), path.c_str());
  }
  print_json(r, opt.trace ? r.per_layer : r.end_to_end);
  return 0;
}
