// pd2gl_e2e: the end-to-end benchmark of PlatoD2GL. One process runs one
// workload and prints its report on stdout (RunReport::Print).
//
//   pd2gl_e2e --workload NAME [--seed N] [--duration S] [--trace FILE]
//
// Without --trace it reports the end-to-end metrics. With --trace it runs
// untraced and traced slices of the duration after a single set-up,
// reports the per-layer metrics, wall-clock ones included, and writes the
// spans to FILE. Exit status is 1 when an output check fails and 2 on bad
// arguments.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "e2e.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pd2gl_e2e --workload train-khop|serve-zipf|"
               "ingest-pipeline|train-churn [--seed N] [--duration S] "
               "[--trace FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pd2gl_e2e;
  const std::map<std::string, void (*)(const Options&, RunReport*)> workloads =
      {{"train-khop", RunTrainKhop},
       {"serve-zipf", RunServeZipf},
       {"ingest-pipeline", RunIngestPipeline},
       {"train-churn", RunTrainChurn}};

  Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--duration") {
        opt.duration_s = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace_file = value;
      } else {
        return Usage();
      }
    }
  } catch (const std::logic_error&) {
    return Usage();
  }
  const auto it = workloads.find(opt.workload);
  if (argc % 2 == 0 || it == workloads.end() || !(opt.duration_s > 0.0)) {
    return Usage();
  }

  RunReport report;
  it->second(opt, &report);
  report.Print(opt);
  return report.correct() ? 0 : 1;
}
