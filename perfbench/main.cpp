// perfbench <serve|load|probe> --workload NAME [--seed N] [--seconds S]
//           [--port P] [--server-pid PID] [--phases all|capacity]
//           [--trace-out PATH]
//
// Each role prints one JSON result line last on stdout (serve prints
// `READY <port>` first and `DONE <json>` last). perfbench/run.py runs them.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "roles.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench <serve|load|probe> --workload NAME [options]\n";
    return 2;
  }
  const std::string role = argv[1];
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--port") {
      args.port = static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (key == "--server-pid") {
      args.server_pid = std::atoi(value);
    } else if (key == "--phases") {
      args.phases = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "perfbench: unknown option " << key << "\n";
      return 2;
    }
  }
  if ((argc - 2) % 2 != 0) {
    std::cerr << "perfbench: option " << argv[argc - 1] << " has no value\n";
    return 2;
  }
  try {
    if (role == "serve") return run_serve(args);
    if (role == "load") return run_load(args);
    if (role == "probe") return run_probe(args);
    std::cerr << "perfbench: unknown role " << role << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench " << role << ": " << e.what() << "\n";
    return 1;
  }
}
