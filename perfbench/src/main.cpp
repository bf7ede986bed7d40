// decor_bench: runs one iteration of one benchmark workload and prints
// what it measured as one JSON object on stdout. run.py starts a fresh
// process per iteration and aggregates the objects.
//
//   decor_bench --workload NAME --seed N [--traced] [--scratch DIR]
#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

void write_values(decor::common::JsonWriter& w, const char* key,
                  const perfbench::Values& values) {
  w.key(key);
  w.begin_object();
  for (const auto& [name, v] : values.items()) {
    w.key(name);
    w.value(v);
  }
  w.end_object();
}

void write_strings(decor::common::JsonWriter& w, const char* key,
                   const std::vector<std::string>& items) {
  w.key(key);
  w.begin_array();
  for (const auto& s : items) w.value(s);
  w.end_array();
}

int usage() {
  std::cerr << "usage: decor_bench --workload NAME --seed N [--traced] "
               "[--scratch DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::IterationOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--traced") {
      opts.traced = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--scratch" && has_value) {
      opts.scratch = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.workload.empty()) return usage();

  perfbench::IterationReport rep;
  try {
    rep = perfbench::run_iteration(opts);
  } catch (const std::exception& e) {
    std::cerr << "decor_bench: " << e.what() << "\n";
    return 1;
  }

  std::ostringstream os;
  decor::common::JsonWriter w(os);
  w.begin_object();
  w.key("setup_s");
  w.value(rep.setup_s);
  w.key("wall_s");
  w.value(rep.wall_s);
  w.key("work");
  w.value(rep.work);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  w.key("peak_rss_kb");
  w.value(static_cast<std::int64_t>(ru.ru_maxrss));
  write_values(w, "outputs", rep.outputs);
  w.key("explain_s");
  w.value(rep.explain_s);
  write_values(w, "layers", rep.layers);
  write_strings(w, "failures", rep.failures);
  write_strings(w, "errors", rep.errors);
  w.key("spans");
  w.begin_array();
  for (const auto& s : perfbench::recorder().spans()) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("start");
    w.value(s.start);
    w.key("end");
    w.value(s.end);
    w.key("parent");
    w.value(static_cast<std::int64_t>(s.parent));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << os.str() << "\n";
  return 0;
}
