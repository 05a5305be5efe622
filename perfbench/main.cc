// mmdb end-to-end benchmark.
//
//   mmdb_perfbench --workload <embedded-helmet|served-sharded|disk-flag>
//                  --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Builds the workload's inputs from the seed, measures a closed loop for
// the given seconds, checks the answers, and prints one JSON line last:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md in this directory.

#include <sched.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"

namespace {

/// Binds the process, and every thread it starts later, to the last CPU
/// it may run on. On a shared virtual machine the host takes time from
/// each virtual CPU in bursts, and a request that hops across several
/// CPUs (client, server, coordinator, shard workers) waits whenever any
/// of them is held; on one CPU those hand-offs are plain context
/// switches. The last CPU is chosen because the first usually takes most
/// device interrupts. Returns the CPU, or -1 if the binding failed.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

int Usage() {
  std::cerr << "usage: mmdb_perfbench --workload "
               "<embedded-helmet|served-sharded|disk-flag> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
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
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return Usage();
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  if (error) {
    std::cerr << "cannot create " << options.out_dir << ": "
              << error.message() << "\n";
    return 1;
  }

  const int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::cerr << "cannot bind to one CPU\n";
    return 1;
  }
  std::cout << "cpu " << cpu << "\n";

  perfbench::Report report;
  int status = 0;
  if (options.workload == "embedded-helmet") {
    status = perfbench::RunEmbeddedHelmet(options, &report);
  } else if (options.workload == "served-sharded") {
    status = perfbench::RunServedSharded(options, &report);
  } else if (options.workload == "disk-flag") {
    status = perfbench::RunDiskFlag(options, &report);
  } else {
    return Usage();
  }
  if (status != 0) return status;
  report.Print(options.trace);
  return report.correct() ? 0 : 1;
}
