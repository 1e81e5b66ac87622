#ifndef RAQLET_BENCH_E2E_BENCH_H_
#define RAQLET_BENCH_E2E_BENCH_H_

// Shared pieces of the end-to-end benchmark (see README.md): the span
// recorder of the traced run, the per-layer metric accumulator, the
// independent oracle over the generated edge and node columns, and the
// result checkers.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/value_ops.h"
#include "storage/database.h"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own code around each layer
// call. All spans stay in memory until the run ends.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  // index into Tracer::spans(), -1 for an operation root
  int64_t op = -1;  // operation id shared by every span of one operation
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Begin(std::string name, int64_t op);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace-event JSON of every span (args: op, parent).
  void WriteChromeTrace(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

// RAII span; a no-op when `tracer` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// Per-layer metrics: each named value is the mean of its samples.
class LayerMetrics {
 public:
  void Add(const std::string& name, double value) {
    Acc& a = acc_[name];
    a.sum += value;
    ++a.count;
  }
  // Sets a ratio or one-off value (replaces earlier samples).
  void Set(const std::string& name, double value) { acc_[name] = {value, 1}; }
  double Mean(const std::string& name) const;
  size_t Count(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  struct Acc {
    double sum = 0;
    size_t count = 0;
  };
  std::map<std::string, Acc> acc_;
};

// Folds the spans of a traced run into per-layer mean durations and checks
// that the children of every operation account for its wall time. Prints
// the per-layer table (including an explicit `unaccounted` line) to `os`.
// `excluded` names spans that are not part of the operation's timed work
// (the benchmark's own result check).
struct Accounting {
  double op_wall_ms = 0;       // sum of operation wall times
  double unaccounted_ms = 0;   // sum over operations of wall - children
  size_t ops = 0;
  size_t ops_over_tolerance = 0;
};
Accounting FoldSpans(const Tracer& tracer, const std::string& excluded,
                     LayerMetrics* layers, std::ostream& os);

// ---------------------------------------------------------------------------
// Oracle: adjacency lists and searches computed apart from the program.
// ---------------------------------------------------------------------------

struct Graph {
  int64_t nodes = 0;                       // ids are 1..nodes
  std::vector<std::vector<int64_t>> out;   // out[id] = successor ids
};

// Every node reachable from `src` by a walk of one or more edges, sorted.
std::vector<int64_t> ReachableFrom(const Graph& g, int64_t src);
// Shortest walk length (>= 1 edge) from `src` to every node it reaches.
std::vector<std::pair<int64_t, int64_t>> DistancesFrom(const Graph& g,
                                                       int64_t src);
// Nodes reachable by walks of 1..max_hops edges, sorted.
std::vector<int64_t> WithinHops(const Graph& g, int64_t src, int max_hops);

// ---------------------------------------------------------------------------
// Results in canonical form: every row as its (kind, payload) words, rows
// sorted. Two results match when their canonical forms are equal.
// ---------------------------------------------------------------------------

struct Canonical {
  size_t arity = 0;
  std::vector<int64_t> words;  // rows * arity payloads, rows sorted
  std::vector<uint8_t> kinds;  // per value ValueType, same layout
  size_t rows() const { return arity == 0 ? 0 : words.size() / arity; }
};

// Builds the canonical form of engine output. Rows are sorted; duplicates
// are kept so that a result that repeats a row does not match a set.
Canonical Canonicalize(const raqlet::engine::ResultTable& table,
                       size_t arity);
// Canonical form of expected rows given as value tuples.
Canonical CanonicalRows(std::vector<raqlet::Tuple> rows, size_t arity);
// Numeric pair / single-column shorthands for the recursive queries.
Canonical CanonicalPairs(std::vector<std::pair<int64_t, int64_t>> rows);
Canonical CanonicalIds(const std::vector<int64_t>& ids);

// Empty string when equal, otherwise a one-line description of the first
// difference.
std::string Compare(const Canonical& got, const Canonical& want);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where a traced run writes its span and layer files
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
};

bool IsWorkload(const std::string& name);
// Runs one workload; progress and tables go to `log`. Returns false when
// the run could not be set up (no result is printed then).
bool RunWorkload(const RunConfig& config, RunOutput* out, std::ostream& log);
// Feeds every workload's checkers corrupted results; returns the number of
// corruptions a checker failed to reject (0 = the checks can fail).
int RunSelfTest(std::ostream& log);

}  // namespace bench

#endif  // RAQLET_BENCH_E2E_BENCH_H_
