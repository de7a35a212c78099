//===- Trace.h - In-memory span recorder for the traced run -----*- C++ -*-===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans are recorded by the benchmark around its calls into the
/// program's public entry points (the program itself is not
/// instrumented). Each span has a name, start, end, parent span and op
/// id; spans stay in memory and are written once, at the end of the
/// traced run. Counts (simulated instructions, ...) are recorded at the
/// same boundaries so rates are computed where the work happened.
///
//===----------------------------------------------------------------------===//

#ifndef SRP_PERFBENCH_TRACE_H
#define SRP_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double wallNow();
/// Process CPU seconds (all threads).
double cpuNow();

struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0: no parent.
  uint64_t Op = 0;     ///< Op the span belongs to (0: not inside an op).
  uint32_t Thread = 0; ///< Small per-tracer thread index.
  const char *Name = ""; ///< A string literal.
  double Start = 0, End = 0; ///< Seconds since the tracer was created.
};

class Tracer {
public:
  Tracer();

  /// Seconds since construction.
  double now() const { return wallNow() - Epoch; }

  /// Opens a span; close it with end().
  uint32_t begin(const char *Name, uint32_t Parent, uint64_t Op);
  void end(uint32_t Id);
  /// Records an already finished span.
  uint32_t add(const char *Name, uint32_t Parent, uint64_t Op, double Start,
               double End);
  void count(const std::string &Name, double Value);

  const std::vector<Span> &spans() const { return Spans; }
  double counter(const std::string &Name) const;

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover (children on other threads included).
  std::map<std::string, double> selfSeconds() const;
  /// Total duration and number of spans per name.
  std::map<std::string, std::pair<double, uint64_t>> totals() const;

  /// Writes every span and counter as one JSON document.
  bool write(const std::string &Path, const std::string &HostJson,
             const std::string &Workload) const;

private:
  uint32_t threadIndex();

  double Epoch;
  mutable std::mutex M; ///< Guards everything below.
  std::vector<Span> Spans;
  std::map<std::string, double> Counters;
  std::map<uint64_t, uint32_t> ThreadIds; ///< std::thread::id hash -> index
};

/// RAII span; a null tracer makes it a no-op, so traced and untraced
/// derivation code share one path.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, uint32_t Parent, uint64_t Op)
      : T(T), Id(T ? T->begin(Name, Parent, Op) : 0) {}
  ~SpanScope() {
    if (T)
      T->end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint32_t id() const { return Id; }

private:
  Tracer *T;
  uint32_t Id;
};

} // namespace perfbench

#endif // SRP_PERFBENCH_TRACE_H
