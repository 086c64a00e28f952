//===- perfbench/src/Report.cpp - Metrics, gates and provenance -----------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

using namespace perfbench;

void Report::set(const std::string &Name, double Value,
                 const std::string &Unit, size_t Samples) {
  if (!std::isfinite(Value)) {
    failed(1, "metric " + Name + " is not finite");
    Value = 0.0;
  }
  for (Entry &E : Metrics)
    if (E.Name == Name) {
      E = {Name, Value, Unit, Samples};
      return;
    }
  Metrics.push_back({Name, Value, Unit, Samples});
}

void Report::failed(uint64_t N, const std::string &What) {
  if (N == 0)
    return;
  Failed += N;
  Failures.push_back(What);
}

void Report::gate(const std::string &Name, bool Ok, const std::string &Detail) {
  ++Attempted;
  if (!Ok)
    failed(1, "gate " + Name + (Detail.empty() ? "" : ": " + Detail));
}

void Report::provenance(const std::string &Key, const std::string &Value) {
  Provenance.emplace_back(Key, "\"" + jsonEscape(Value) + "\"");
}

void Report::provenance(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Provenance.emplace_back(Key, Buf);
}

void Report::print(std::FILE *Out) const {
  for (const std::string &F : Failures)
    std::fprintf(Out, "FAILED: %s\n", F.c_str());
  std::fprintf(Out, "%-34s %16s  %-6s %s\n", "metric", "value", "unit",
               "samples");
  for (const Entry &E : Metrics)
    std::fprintf(Out, "%-34s %16.6g  %-6s %zu\n", E.Name.c_str(), E.Value,
                 E.Unit.c_str(), E.Samples);
  std::fprintf(Out, "attempted %llu, failed %llu (failed_ratio %.6g)\n",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed),
               Attempted ? static_cast<double>(Failed) /
                               static_cast<double>(Attempted)
                         : 0.0);

  std::string Json = "{\"correct\": ";
  Json += ok() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Entry &E = Metrics[I];
    std::snprintf(Buf, sizeof(Buf), "%.17g", E.Value);
    Json += (I ? ", \"" : "\"") + jsonEscape(E.Name) + "\": {\"value\": " +
            Buf + ", \"unit\": \"" + jsonEscape(E.Unit) +
            "\", \"samples\": " + std::to_string(E.Samples) + "}";
  }
  Json += "}, \"provenance\": {";
  for (size_t I = 0; I < Provenance.size(); ++I)
    Json += (I ? ", \"" : "\"") + jsonEscape(Provenance[I].first) +
            "\": " + Provenance[I].second;
  Json += "}}";
  std::fprintf(Out, "PERFBENCH_RESULT %s\n", Json.c_str());
  std::fflush(Out);
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Index, V.size() - 1)];
}

double perfbench::peakRssMb() {
  struct rusage Usage = {};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string perfbench::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}
