// perfbench: the measuring binary of the repository benchmark. run.py
// builds it and calls it once per run; see perfbench/README.md.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--mode run|allocs] [--spans-out FILE] [--break-check NAME]
//
// Prints notes as "# ..." lines and then one JSON result line. A failed
// output check exits 3 and prints no result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "pls/net/link_model.hpp"

namespace perfbench {

void check(const Options& opt, const std::string& name, bool ok) {
  if (!ok || opt.break_check == name) {
    throw CheckFailure("output check failed: " + name);
  }
}

void apply_control(pls::core::PartialLookupService& svc, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kFail:
      svc.fail_server(op.server);
      break;
    case Op::Kind::kRecover:
      svc.recover_server(op.server);
      break;
    case Op::Kind::kPartitionStart:
      svc.cluster().network().set_partition(
          pls::net::split_partition(svc.num_servers(), op.aux));
      break;
    case Op::Kind::kPartitionEnd:
      svc.cluster().network().clear_partition();
      break;
    default:
      break;
  }
}

void Tracer::absorb(const Tracer& other) {
  for (const auto& [name, agg] : other.totals_) {
    auto& mine = totals_[name];
    mine.first += agg.first;
    mine.second += agg.second;
  }
  for (const Span& s : other.spans_) {
    if (spans_.size() >= cap_) break;
    spans_.push_back(s);
  }
}

bool Tracer::write(const std::string& path, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
  return out.good();
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--mode run|allocs] [--spans-out FILE] "
               "[--break-check NAME]\n";
  return 2;
}

void print_result(const perfbench::Result& r) {
  for (const auto& line : r.notes) std::cout << "# " << line << '\n';
  std::cout << "{\"correct\": true, \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << value << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--mode") {
        opt.mode = value;
      } else if (flag == "--spans-out") {
        opt.spans_out = value;
      } else if (flag == "--break-check") {
        opt.break_check = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.seconds <= 0.0 || (opt.mode != "run" && opt.mode != "allocs")) {
    return usage();
  }

  try {
    perfbench::Result r;
    if (opt.workload == "lookup_routed") {
      r = perfbench::run_lookup_routed(opt);
    } else if (opt.workload == "saturation_lossy") {
      r = perfbench::run_saturation_lossy(opt);
    } else if (opt.workload == "paper_dynamic") {
      r = perfbench::run_paper_dynamic(opt);
    } else {
      std::cerr << "unknown workload: " << opt.workload << '\n';
      return 2;
    }
    for (const auto& [name, m] : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::cerr << "metric " << name << " is not finite\n";
        return 4;
      }
    }
    print_result(r);
    return 0;
  } catch (const perfbench::CheckFailure& e) {
    std::cerr << e.what() << '\n';
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 4;
  }
}
