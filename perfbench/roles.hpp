// The three roles of the perfbench binary and their shared arguments.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint16_t port = 0;    // load: the server's port
  int server_pid = 0;        // load: whose /proc CPU time and RSS to read
  std::string phases = "all";  // load: "all" or "capacity"
  std::string trace_out;     // serve: Chrome trace path (empty = tracing off)
};

int run_serve(const Args& args);
int run_load(const Args& args);
int run_probe(const Args& args);

}  // namespace perfbench
