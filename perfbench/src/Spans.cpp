//===- perfbench/src/Spans.cpp - In-memory span tracing -------------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t perfbench::threadCpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(T.tv_nsec);
}

int64_t SpanRecorder::open(const char *Name, uint64_t Request) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  Spans.push_back(S);
  const int64_t Id = static_cast<int64_t>(Spans.size()) - 1;
  Stack.push_back(Id);
  // Read the clock last so the bookkeeping above is not inside the span.
  Spans.back().StartNs = nowNs();
  return Id;
}

void SpanRecorder::close(int64_t Id) {
  if (!Enabled || Id < 0)
    return;
  const uint64_t End = nowNs();
  Spans[static_cast<size_t>(Id)].EndNs = End;
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void SpanRecorder::addChild(int64_t Parent, const char *Name,
                            uint64_t StartNs, uint64_t EndNs) {
  if (!Enabled || Parent < 0)
    return;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  S.Parent = Parent;
  S.Request = Spans[static_cast<size_t>(Parent)].Request;
  Spans.push_back(S);
}

double SpanRecorder::durationSeconds(int64_t Id) const {
  if (Id < 0)
    return 0.0;
  const Span &S = Spans[static_cast<size_t>(Id)];
  return static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
}

std::map<std::string, double> SpanRecorder::selfSeconds(int64_t Root) const {
  std::map<std::string, double> Out;
  if (Root < 0)
    return Out;
  const size_t N = Spans.size();
  // A child always follows its parent (open() appends; addChild needs
  // an existing parent), so one forward sweep finds the subtree.
  std::vector<char> Inside(N, 0);
  std::vector<double> Children(N, 0.0);
  for (size_t I = static_cast<size_t>(Root); I < N; ++I) {
    const Span &S = Spans[I];
    Inside[I] = I == static_cast<size_t>(Root) ||
                (S.Parent >= 0 && Inside[static_cast<size_t>(S.Parent)]);
    if (Inside[I] && I != static_cast<size_t>(Root))
      Children[static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs);
  }
  for (size_t I = static_cast<size_t>(Root); I < N; ++I)
    if (Inside[I]) {
      const Span &S = Spans[I];
      double Self = static_cast<double>(S.EndNs - S.StartNs) - Children[I];
      Out[S.Name] += std::max(0.0, Self) * 1e-9;
    }
  return Out;
}

bool perfbench::writeSpans(const std::string &Path,
                           const std::vector<const SpanRecorder *> &Recorders) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"threads\": [\n");
  for (size_t R = 0; R < Recorders.size(); ++R) {
    const SpanRecorder &Rec = *Recorders[R];
    std::fprintf(F, "{\"thread\": \"%s\", \"spans\": [\n",
                 Rec.thread().c_str());
    const std::vector<Span> &Spans = Rec.spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "[%zu, \"%s\", %llu, %llu, %lld, %llu]%s\n", I, S.Name,
                   static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs),
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Request),
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]}%s\n", R + 1 < Recorders.size() ? "," : "");
  }
  std::fprintf(F, "], \"columns\": [\"id\", \"name\", \"start_ns\", "
                  "\"end_ns\", \"parent\", \"request\"]}\n");
  return std::fclose(F) == 0;
}
