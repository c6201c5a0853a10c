#include "spans.h"

#include <cstdio>
#include <utility>

namespace perfbench {

int Spans::open(const char* name, int parent, int pass, std::string design) {
  const std::int64_t start = nowNs();
  records_.push_back({name, std::move(design), start, start, parent, pass});
  return static_cast<int>(records_.size()) - 1;
}

void Spans::close(int index) { records_[index].endNs = nowNs(); }

std::int64_t Spans::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::string Spans::chromeJson(const std::string& metaJson) const {
  std::string out = "{\"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& s = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %zu, \"parent\": %d, \"pass\": %d",
                  i == 0 ? "" : ",", s.name, s.startNs / 1e3,
                  (s.endNs - s.startNs) / 1e3, i, s.parent, s.pass);
    out += buf;
    if (!s.design.empty()) out += ", \"design\": \"" + s.design + "\"";
    out += "}}";
  }
  out += "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " + metaJson + "}\n";
  return out;
}

std::vector<std::int64_t> selfTimesNs(const std::deque<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].endNs - spans[i].startNs;
    self[i] += duration;
    if (spans[i].parent >= 0) self[spans[i].parent] -= duration;
  }
  return self;
}

}  // namespace perfbench
