//===- Trace.cpp - In-memory span recorder --------------------------------===//
//
// Part of the srp-alat project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <thread>

using namespace perfbench;

double perfbench::wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double perfbench::cpuNow() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + static_cast<double>(TS.tv_nsec) * 1e-9;
}

Tracer::Tracer() : Epoch(wallNow()) { Spans.reserve(1 << 16); }

uint32_t Tracer::threadIndex() {
  uint64_t Key = std::hash<std::thread::id>()(std::this_thread::get_id());
  auto [It, Inserted] =
      ThreadIds.emplace(Key, static_cast<uint32_t>(ThreadIds.size()));
  return It->second;
}

uint32_t Tracer::begin(const char *Name, uint32_t Parent, uint64_t Op) {
  double Start = now();
  std::lock_guard<std::mutex> L(M);
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Op = Op;
  S.Thread = threadIndex();
  S.Name = Name;
  S.Start = Start;
  S.End = Start;
  Spans.push_back(S);
  return S.Id;
}

void Tracer::end(uint32_t Id) {
  double End = now();
  std::lock_guard<std::mutex> L(M);
  Spans[Id - 1].End = End;
}

uint32_t Tracer::add(const char *Name, uint32_t Parent, uint64_t Op,
                     double Start, double End) {
  std::lock_guard<std::mutex> L(M);
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Op = Op;
  S.Thread = threadIndex();
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  Spans.push_back(S);
  return S.Id;
}

void Tracer::count(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> L(M);
  Counters[Name] += Value;
}

double Tracer::counter(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size() +
                                                               1);
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Children[S.Parent].push_back({S.Start, S.End});
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    std::vector<std::pair<double, double>> &C = Children[S.Id];
    std::sort(C.begin(), C.end());
    double Covered = 0, Lo = S.Start, Hi = S.Start;
    for (auto [A, B] : C) {
      A = std::clamp(A, S.Start, S.End);
      B = std::clamp(B, S.Start, S.End);
      if (A > Hi) {
        Covered += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += Hi - Lo;
    Self[S.Name] += (S.End - S.Start) - Covered;
  }
  return Self;
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::totals() const {
  std::lock_guard<std::mutex> L(M);
  std::map<std::string, std::pair<double, uint64_t>> T;
  for (const Span &S : Spans) {
    auto &E = T[S.Name];
    E.first += S.End - S.Start;
    ++E.second;
  }
  return T;
}

bool Tracer::write(const std::string &Path, const std::string &HostJson,
                   const std::string &Workload) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  std::fprintf(F, "{\"schema\":\"srp-perfbench-trace/1\",\"workload\":\"%s\",",
               Workload.c_str());
  std::fprintf(F, "\"host\":%s,\"time_unit\":\"us\",\"counters\":{",
               HostJson.c_str());
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    std::fprintf(F, "%s\"%s\":%.17g", First ? "" : ",", Name.c_str(), Value);
    First = false;
  }
  std::fprintf(F, "},\n\"spans\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"id\":%u,\"parent\":%u,\"op\":%llu,\"thread\":%u,"
                 "\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f}",
                 I ? "," : "", S.Id, S.Parent, (unsigned long long)S.Op,
                 S.Thread, S.Name, S.Start * 1e6, S.End * 1e6);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}
