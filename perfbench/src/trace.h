// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code around calls into each layer's public
// functions; nothing inside the library is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's own monotonic clock — the only source of
/// wall-clock fields in every record.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;       // index into Tracer::spans(), -1 at a root
  int64_t request = -1;  // shared by every span of one request
};

/// Single-threaded recorder; concurrent clients each keep their own and
/// Append them once joined.
class Tracer {
 public:
  int Begin(std::string name, int parent, int64_t request) {
    spans_.push_back({std::move(name), Now(), 0.0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[size_t(id)].end = Now(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another recorder's spans (keeping their parent links).
  void Append(const Tracer& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

  /// Durations (seconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Per span name: total self time, i.e. each span's duration minus
  /// the part of it its child spans cover.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[size_t(s.parent)].push_back({s.start, s.end});
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      std::vector<std::pair<double, double>>& c = children[i];
      std::sort(c.begin(), c.end());
      double covered = 0.0, reach = spans_[i].start;
      for (const auto& [start, end] : c) {
        const double from = std::max(start, reach);
        const double to = std::min(end, spans_[i].end);
        if (to > from) covered += to - from;
        reach = std::max(reach, end);
      }
      self[spans_[i].name] += (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span: ends when it leaves scope.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name, int parent, int64_t request)
      : tracer_(t), id_(t.Begin(std::move(name), parent, request)) {}
  ~Scoped() { tracer_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
