// Shared pieces of the repository benchmark (perfbench): options, the
// result record every workload fills, span tracing, the service-level op
// stream the ledger replays, and small statistics.
//
// A workload builds all of its inputs from --seed before any timing starts,
// runs its measured loop for --seconds, checks its outputs against an
// independent replay, and only then reports. A failed check throws
// CheckFailure; main() turns that into a non-zero exit with no metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "pls/common/types.hpp"
#include "pls/core/service.hpp"

namespace perfbench {

using pls::Entry;
using pls::Key;
using pls::ServerId;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "run" measures the workload; "allocs" runs only the ledger and reports
  /// allocation counts (meaningful in the PLS_COUNT_ALLOCS build).
  std::string mode = "run";
  /// Names one output check to fail on purpose; the benchmark's own tests
  /// use it to show that a failing check fails the run.
  std::string break_check;
  /// Where the traced run writes its spans (empty = do not write).
  std::string spans_out;
};

struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One output check; throws CheckFailure when `ok` is false or when
/// --break-check names it.
void check(const Options& opt, const std::string& name, bool ok);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Lines printed before the result line: ledger figures that are not in
  /// BENCHMARK.json, and why a figure is missing on this workload.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
};

// --- spans ------------------------------------------------------------------

/// One traced interval. Spans of one op share `op`; `parent` is the index
/// of the enclosing span (-1 at the top).
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;
  std::uint64_t op;
};

/// In-memory span store: every span is summed by name; the first `cap`
/// are also kept whole and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(std::size_t cap = 1u << 20) : cap_(cap) {}

  /// Opens a span and returns its handle (pass it to close()).
  std::int64_t open(const char* name, std::uint64_t op, std::int64_t parent) {
    if (spans_.size() >= cap_) {
      overflow_.push_back({name, now_ns(), 0, parent, op});
      return -static_cast<std::int64_t>(overflow_.size());
    }
    spans_.push_back({name, now_ns(), 0, parent, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void close(std::int64_t handle) {
    const std::uint64_t end = now_ns();
    Span& s = handle >= 0 ? spans_[static_cast<std::size_t>(handle)]
                          : overflow_[static_cast<std::size_t>(-handle - 1)];
    s.end_ns = end;
    auto& agg = totals_[s.name];  // finds by the name's bytes, no copy
    agg.first += end - s.start_ns;
    agg.second += 1;
    // Past the cap, spans nest strictly (ScopedSpan), so they close LIFO.
    if (handle < 0) overflow_.pop_back();
  }

  /// Adds another tracer's totals and, up to the cap, its kept spans (a
  /// trial traced on a worker thread joins the run's tracer this way).
  void absorb(const Tracer& other);

  /// Summed nanoseconds / count of all closed spans called `name`.
  double total_ns(const char* name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second.first);
  }
  std::uint64_t count(const char* name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.second;
  }

  /// Writes (or appends) the kept spans as JSON lines; returns false on an
  /// I/O error.
  bool write(const std::string& path, bool append) const;

 private:
  /// Orders span names by their bytes. Names are string literals, so the
  /// totals can be keyed by the pointers without copying a name per span.
  struct NameLess {
    bool operator()(const char* a, const char* b) const {
      return std::strcmp(a, b) < 0;
    }
  };

  std::size_t cap_;
  std::vector<Span> spans_;
  std::vector<Span> overflow_;
  std::map<const char*, std::pair<std::uint64_t, std::uint64_t>, NameLess>
      totals_;
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tr, const char* name, std::uint64_t op = 0,
             std::int64_t parent = -1)
      : tr_(tr), handle_(tr ? tr->open(name, op, parent) : 0) {}
  ~ScopedSpan() {
    if (tr_) tr_->close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t handle() const noexcept { return handle_; }

 private:
  Tracer* tr_;
  std::int64_t handle_;
};

// --- the service-level op stream -----------------------------------------

/// One operation on a multi-key service. Every workload's stream is also
/// expressed this way for the ledger and the sequential replays.
struct Op {
  enum class Kind : std::uint8_t {
    kLookup,
    kAdd,
    kErase,
    kFail,
    kRecover,
    kPartitionStart,
    kPartitionEnd,
  };
  Kind kind = Kind::kLookup;
  std::uint32_t key = 0;
  ServerId server = 0;
  Entry entry = 0;
  /// kPartitionStart: the net::split_partition seed.
  std::uint64_t aux = 0;
  double time = 0.0;

  bool client() const noexcept {
    return kind == Kind::kLookup || kind == Kind::kAdd || kind == Kind::kErase;
  }
};

/// Applies a failure or partition op to a service (client ops are the
/// caller's business).
void apply_control(pls::core::PartialLookupService& svc, const Op& op);

/// A catalogue plus an op stream over it: what the ledger replays through
/// every layer, each on its own instance.
struct LedgerInput {
  pls::core::ServiceConfig config;
  std::vector<Key> keys;
  std::vector<std::vector<Entry>> initial;
  std::vector<Op> ops;
  std::size_t t = 5;
};

/// Replays `in` through each layer's public entry point on instances of its
/// own and adds the per-layer metrics to `out`: times in "run" mode,
/// allocation counts in "allocs" mode.
void run_ledger(const LedgerInput& in, const Options& opt, Result& out,
                Tracer* tracer);

/// What RepairProcess::scan_once did when run after every recovery of a
/// stream, on an instance of its own (all zero if the stream has none).
struct RepairFigures {
  std::uint64_t passes = 0;
  double pass_ns = 0.0;  ///< summed over the passes
  std::uint64_t replicas = 0;
  std::uint64_t processed = 0;
};

/// Replays `in` with a repair pass after each recovery and checks that the
/// repair ledger conserves transport ("repair_transport_conserved").
RepairFigures run_repair_ledger(const LedgerInput& in, const Options& opt,
                                Tracer* tracer);

// --- statistics -------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place), p in [0, 100].
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mib();

// --- workloads -------------------------------------------------------------

Result run_lookup_routed(const Options& opt);
Result run_saturation_lossy(const Options& opt);
Result run_paper_dynamic(const Options& opt);

}  // namespace perfbench
