// The traced run's span recorder. Spans are kept in memory around each
// public libmframe call the benchmark makes and written out once, at exit, as
// Chrome trace-event JSON. The library's own trace:: spans stay off; only its
// counters are switched on for the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal, e.g. "core.mfsa"
  std::string design;          ///< set on a design pass's root span only
  std::int64_t startNs = 0;    ///< since the recorder was created
  std::int64_t endNs = 0;
  int parent = -1;             ///< index of the parent span, -1 for a root
  int pass = 0;                ///< shared by every span of one design pass
};

class Spans {
 public:
  /// Open a span and return its index.
  int open(const char* name, int parent, int pass, std::string design = {});
  void close(int index);

  const std::deque<SpanRecord>& records() const { return records_; }

  /// {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": <meta>}.
  /// `metaJson` must be a JSON object.
  std::string chromeJson(const std::string& metaJson) const;

 private:
  std::int64_t nowNs() const;

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::deque<SpanRecord> records_;  ///< a deque never moves recorded spans
};

/// Opens a span on construction and closes it on destruction; does nothing,
/// not even read the clock, when `spans` is null (the untraced passes).
class Scope {
 public:
  Scope(Spans* spans, const char* name, int parent, int pass,
        std::string design = {})
      : spans_(spans),
        index_(spans ? spans->open(name, parent, pass, std::move(design)) : -1) {}
  ~Scope() {
    if (spans_) spans_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return index_; }

 private:
  Spans* spans_;
  int index_;
};

/// Self time of every span, in record order: its duration minus its child
/// spans' durations. A Scope's children are sequential and nested inside it.
std::vector<std::int64_t> selfTimesNs(const std::deque<SpanRecord>& spans);

}  // namespace perfbench
