// sdtw_perfbench: runs one named workload of the layered sDTW benchmark
// and prints its metrics.
//
//   sdtw_perfbench --workload <pairwise-words|knn-sdtw|knn-dtw|service-zipf>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <spans.json>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and measured: every metric the run measured,
// by name. Untraced runs (--trace 0) measure the end-to-end metrics;
// traced runs (--trace 1) also the per-layer metrics, with spans kept in
// memory and written to --trace-out when the run ends. perfbench/run.py
// turns this line into the result of BENCHMARK.json's contract.
// A line starting "perfbench-meta " before it carries the run metadata:
// kernel variant, CPU features, nproc, compiler, build type, commit and
// seed; runs whose kernel variant or CPU features differ must not be
// compared (perfbench/compare.py refuses them).

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "dtw/kernel_dispatch.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: sdtw_perfbench --workload "
               "<pairwise-words|knn-sdtw|knn-dtw|service-zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

void PrintNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");  // JSON has no infinity
  }
}

int Main(int argc, char** argv) {
  // Keep freed heap memory resident. Every set-up after the first
  // rebuilds in place; without this, whether glibc had returned the
  // previous copy's pages to the kernel decided whether a set-up paid for
  // page faults, and set-up samples fell into two modes 2-3x apart
  // (knn-dtw), the process picking the mode.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  RunConfig config;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds (> 0) and --trace (0 or 1) "
                 "are required");
  }
  WorkloadSpec spec;
  if (!SpecFor(config.workload, config.seed, &spec)) {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  std::printf("perfbench-meta {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"kernel\": \"%s\", "
              "\"cpu_features\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\", "
              "\"source_digest\": \"%s\", \"index_series\": %zu, "
              "\"length\": %zu, \"queries\": %zu, \"workers\": %zu}\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, sdtw::dtw::ActiveRowKernelOps().name,
              sdtw::dtw::DetectedCpuFeatures().c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE,
              EnvOr("PERFBENCH_COMMIT", "unknown").c_str(),
              EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown").c_str(),
              spec.index.num_series, spec.index.length, spec.num_queries,
              spec.workers);
  std::fflush(stdout);

  Tracer tracer(config.trace);
  RunResult result;
  if (config.workload == "pairwise-words") {
    RunPairwise(spec, config, tracer, result);
  } else if (config.workload == "service-zipf") {
    RunService(spec, config, tracer, result);
  } else {
    using sdtw::retrieval::DistanceKind;
    RunKnn(spec, config,
           config.workload == "knn-sdtw" ? DistanceKind::kSdtw
                                         : DistanceKind::kFullDtw,
           tracer, result);
  }
  result.failed = std::min(result.failed, result.attempted);
  result.Set("ok_rate",
             result.attempted > 0
                 ? 1.0 - static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted)
                 : 0.0);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }

  if (config.trace) {
    std::printf("spans (name, count, total s, self s):\n");
    for (const auto& [name, s] : Summarize(tracer.spans())) {
      std::printf("  %-26s %8zu %12.6f %12.6f\n", name.c_str(), s.count,
                  s.total_s, s.self_s);
    }
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  // Every metric the run measured, by name, without units: run.py names
  // the mode's metrics and their units from BENCHMARK.json.
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"measured\": {",
              result.correct ? "true" : "false", result.attempted,
              result.failed);
  const char* sep = "";
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s\"%s\": ", sep, name.c_str());
    PrintNumber(value);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
