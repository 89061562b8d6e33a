// Benchmark driver: runs one workload and prints, on stdout, the host
// fingerprint, one human-readable line per metric, and as the last line
// the JSON result object. Exits 1 when any output failed its check.
//
//   perfbench_driver --workload tcp_open|batch_closed
//                    --seed N --seconds S --trace 0|1
//                    [--workdir DIR] [--source-id ID] [--corrupt 1]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "tcp_open|batch_closed --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--source-id ID] [--corrupt 1]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const char* key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    if (std::strcmp(key, "--workload") == 0)
      a.workload = val;
    else if (std::strcmp(key, "--seed") == 0)
      a.seed = std::strtoull(val, nullptr, 10);
    else if (std::strcmp(key, "--seconds") == 0)
      a.seconds = std::strtod(val, nullptr);
    else if (std::strcmp(key, "--trace") == 0)
      a.trace = std::strcmp(val, "0") != 0;
    else if (std::strcmp(key, "--corrupt") == 0)
      a.corrupt = std::strcmp(val, "0") != 0;
    else if (std::strcmp(key, "--workdir") == 0)
      a.workdir = val;
    else if (std::strcmp(key, "--source-id") == 0)
      a.source_id = val;
    else
      usage("unknown option");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report rep;
  if (args.workload == "tcp_open")
    perfbench::run_tcp_open(args, rep);
  else if (args.workload == "batch_closed")
    perfbench::run_batch_closed(args, rep);
  else
    usage("unknown workload");

  std::printf("{\"fingerprint\": %s}\n",
              perfbench::host_fingerprint_json(args.source_id).c_str());
  std::printf("%s", rep.detail_lines().c_str());
  if (!rep.correct())
    std::printf("# %zu output(s) failed their check\n", rep.mismatches());
  std::printf("%s\n", rep.final_json().c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
