// Uniform experiment reporting. Each bench announces itself, states the
// paper claim it reproduces, prints its measurement table, and closes with
// an explicit PASS/FAIL shape verdict — so the bench output doubles as the
// data source for EXPERIMENTS.md.
//
// Reporting is routed through ResultSink backends: TextSink reproduces
// the classic console format, JsonSink emits the stable BENCH_T*.json
// schema ("lowsense-bench/v1") that scripts/bench_diff.py and the CI
// bench-regression job consume. The suite runner (harness/suite.hpp)
// fans every bench event out to all attached sinks.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.hpp"
#include "core/table.hpp"

namespace lowsense {

/// "=== T1 · Cor 1.4 — batch throughput ===" style banner + claim text.
void report_header(const std::string& experiment_id, const std::string& paper_anchor,
                   const std::string& claim);

/// Prints the table followed by an optional note.
void report_table(const Table& table, const std::string& note = "");

/// Prints a single "shape check" verdict line.
void report_check(const std::string& what, bool pass, const std::string& detail = "");

/// Final line of a bench.
void report_footer(const std::string& experiment_id);

// ------------------------------------------------------------------ sinks

/// Ordered key=value pairs (insertion order is the render order).
using KvList = std::vector<std::pair<std::string, std::string>>;

/// Identity + configuration of one bench invocation.
struct BenchMeta {
  std::string id;            ///< "T1"
  std::string paper_anchor;  ///< "Cor 1.4 + [23]"
  std::string claim;
  KvList options;  ///< resolved uniform flags (reps, seed, threads, engine, ...)
  KvList params;   ///< bench-specific parameters (n, lo_exp, lambda, ...)
};

/// One named metric with its across-replicates summary.
struct MetricSummary {
  std::string name;
  Summary summary;
};

/// Aggregated result of one scenario cell (one parameter-sweep point).
struct ScenarioResult {
  std::string name;  ///< e.g. "low-sensing/n=4096"
  KvList params;     ///< the cell's sweep coordinates
  std::string engine;
  int reps = 0;
  std::vector<MetricSummary> metrics;
  std::uint64_t total_active_slots = 0;  ///< summed over replicates
  double elapsed_sec = 0.0;              ///< wall time (0 = untimed)

  /// Timing-DERIVED named values (e.g. T12's slot-vs-event slots/s speed
  /// ratio). Rendered under "derived" in the JSON document, next to
  /// slots_per_sec and unlike `metrics`: metric medians are bit-identical
  /// across runs of the same code and seeds and bench_diff.py treats any
  /// drift as a behavior change, while derived values move with the
  /// hardware and are tracked as speeds are.
  std::vector<std::pair<std::string, double>> derived;

  /// Simulation speed for the regression tracker; 0 when untimed.
  double slots_per_sec() const noexcept {
    return elapsed_sec > 0.0 ? static_cast<double>(total_active_slots) / elapsed_sec : 0.0;
  }
};

/// One shape-check verdict.
struct CheckResult {
  std::string what;
  bool pass = false;
  std::string detail;
};

/// Receives the stream of bench events. Implementations must tolerate
/// any event order between begin() and end(); the suite runner emits
/// begin, then sections/notes/tables/scenarios/checks as the bench body
/// produces them, then end.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void begin(const BenchMeta&) {}
  virtual void section(const std::string& /*title*/) {}
  virtual void note(const std::string& /*text*/) {}
  virtual void table(const Table&, const std::string& /*note*/) {}
  virtual void scenario(const ScenarioResult&) {}
  virtual void check(const CheckResult&) {}
  virtual void end(double /*elapsed_sec*/) {}
};

/// Classic console output (the report_* format). Deliberately prints no
/// timing and no thread count, so bench stdout is byte-identical between
/// --threads=1 and --threads=N runs.
class TextSink final : public ResultSink {
 public:
  void begin(const BenchMeta& meta) override;
  void section(const std::string& title) override;
  void note(const std::string& text) override;
  void table(const Table& t, const std::string& note) override;
  void check(const CheckResult& c) override;
  void end(double elapsed_sec) override;

 private:
  std::string id_;
};

/// Structured results: schema "lowsense-bench/v1", one JSON document per
/// bench run, written to `path` at end(). With `include_timing` false the
/// elapsed/slots-per-sec fields are omitted, which makes the document a
/// pure function of the bench's results (used by the schema golden test).
class JsonSink final : public ResultSink {
 public:
  explicit JsonSink(std::string path, bool include_timing = true);

  void begin(const BenchMeta& meta) override;
  void section(const std::string& title) override;
  void scenario(const ScenarioResult& s) override;
  void check(const CheckResult& c) override;
  void end(double elapsed_sec) override;

  /// The rendered document (valid after end()).
  const std::string& rendered() const noexcept { return rendered_; }
  /// False when the output file could not be written.
  bool write_ok() const noexcept { return write_ok_; }

  static constexpr const char* kSchema = "lowsense-bench/v1";

 private:
  std::string path_;
  bool include_timing_;
  bool write_ok_ = true;
  BenchMeta meta_;
  std::string current_section_;
  std::vector<std::pair<std::string, ScenarioResult>> scenarios_;  // (section, result)
  std::vector<CheckResult> checks_;
  std::string rendered_;
};

}  // namespace lowsense
