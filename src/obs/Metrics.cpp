//===- obs/Metrics.cpp - metrics registry implementation ------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace prdnn {
namespace obs {

namespace {

/// Round-trip-exact double formatting for the exposition output. %.17g
/// is exact for every finite double; integers render without noise via
/// the %g trailing-zero trim after a shortest-exact probe.
std::string formatDouble(double V) {
  char Buf[64];
  // Probe increasing precision until the text parses back bit-exact;
  // most metric values (integral counters) exit at the first probe.
  for (int Precision : {1, 6, 15, 17}) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, V);
    if (std::strtod(Buf, nullptr) == V)
      return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::uint32_t threadOrdinal() {
  static std::atomic<std::uint32_t> Next{0};
  thread_local std::uint32_t Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

const char *toString(MetricType Type) {
  switch (Type) {
  case MetricType::Counter:
    return "counter";
  case MetricType::Gauge:
    return "gauge";
  case MetricType::Histogram:
    return "histogram";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

void Counter::add(double Delta) {
  auto &Cell = Cells[threadOrdinal() % kShards].V;
  // CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20
  // and still lowers to a CAS loop on most targets anyway.
  double Cur = Cell.load(std::memory_order_relaxed);
  while (!Cell.compare_exchange_weak(Cur, Cur + Delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed))
    ;
}

double Counter::value() const {
  double Total = 0.0;
  for (const auto &Cell : Cells)
    Total += Cell.V.load(std::memory_order_relaxed);
  return Total;
}

void Counter::reset() {
  for (auto &Cell : Cells)
    Cell.V.store(0.0, std::memory_order_relaxed);
}

void Gauge::add(double Delta) {
  double Cur = V.load(std::memory_order_relaxed);
  while (!V.compare_exchange_weak(Cur, Cur + Delta, std::memory_order_relaxed,
                                  std::memory_order_relaxed))
    ;
}

//===----------------------------------------------------------------------===//
// HistogramSnapshot
//===----------------------------------------------------------------------===//

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t Total = 0;
  for (std::uint64_t C : Counts)
    Total += C;
  return Total;
}

double HistogramSnapshot::quantile(double Q) const {
  const std::uint64_t Total = count();
  if (Total == 0 || Counts.empty())
    return 0.0;
  Q = std::min(std::max(Q, 0.0), 1.0);
  // Nearest-rank: the smallest rank whose cumulative count covers Q.
  const std::uint64_t Rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(Q * static_cast<double>(Total))));
  std::uint64_t Cum = 0;
  for (std::size_t I = 0; I < Counts.size(); ++I) {
    const std::uint64_t Prev = Cum;
    Cum += Counts[I];
    if (Rank > Cum)
      continue;
    if (I >= Edges.size()) // Overflow bucket: no finite upper bound.
      return Edges.empty() ? 0.0 : Edges.back();
    const double Lo = I == 0 ? 0.0 : Edges[I - 1];
    const double Hi = Edges[I];
    const double Frac = static_cast<double>(Rank - Prev) /
                        static_cast<double>(Counts[I]);
    return Lo + (Hi - Lo) * Frac;
  }
  return Edges.empty() ? 0.0 : Edges.back();
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<double> Edges) : EdgesV(std::move(Edges)) {
  std::sort(EdgesV.begin(), EdgesV.end());
  EdgesV.erase(std::unique(EdgesV.begin(), EdgesV.end()), EdgesV.end());
  const std::size_t NumBuckets = EdgesV.size() + 1;
  for (auto &S : Shards)
    S.Buckets = std::make_unique<std::atomic<std::uint64_t>[]>(NumBuckets);
}

void Histogram::observe(double Value) {
  // First bucket with Value <= edge; `le` convention means an exact
  // edge hit belongs to that edge's bucket.
  const std::size_t Bucket =
      std::lower_bound(EdgesV.begin(), EdgesV.end(), Value) - EdgesV.begin();
  auto &S = Shards[threadOrdinal() % kShards];
  S.Buckets[Bucket].fetch_add(1, std::memory_order_relaxed);
  double Cur = S.Sum.load(std::memory_order_relaxed);
  while (!S.Sum.compare_exchange_weak(Cur, Cur + Value,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed))
    ;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot Snap;
  Snap.Edges = EdgesV;
  Snap.Counts.assign(EdgesV.size() + 1, 0);
  for (const auto &S : Shards) {
    for (std::size_t I = 0; I < Snap.Counts.size(); ++I)
      Snap.Counts[I] += S.Buckets[I].load(std::memory_order_relaxed);
    Snap.Sum += S.Sum.load(std::memory_order_relaxed);
  }
  return Snap;
}

void Histogram::reset() {
  for (auto &S : Shards) {
    for (std::size_t I = 0; I < EdgesV.size() + 1; ++I)
      S.Buckets[I].store(0, std::memory_order_relaxed);
    S.Sum.store(0.0, std::memory_order_relaxed);
  }
}

std::vector<double> defaultLatencyBuckets() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
          1e-1, 2.5e-1, 5e-1, 1.0,  2.5,    5.0,  10.0, 30.0,   60.0};
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

const MetricSample *MetricsSnapshot::find(std::string_view Name) const {
  for (const MetricSample &S : Samples)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

double MetricsSnapshot::value(std::string_view Name) const {
  const MetricSample *S = find(Name);
  return S ? S->Value : 0.0;
}

std::string MetricsSnapshot::renderPrometheus() const {
  std::string Out;
  Out.reserve(Samples.size() * 96);
  char Buf[64];
  for (const MetricSample &S : Samples) {
    if (!S.Help.empty()) {
      Out += "# HELP ";
      Out += S.Name;
      Out += ' ';
      Out += S.Help;
      Out += '\n';
    }
    Out += "# TYPE ";
    Out += S.Name;
    Out += ' ';
    Out += toString(S.Type);
    Out += '\n';
    if (S.Type != MetricType::Histogram) {
      Out += S.Name;
      Out += ' ';
      Out += formatDouble(S.Value);
      Out += '\n';
      continue;
    }
    // Histogram series: cumulative buckets, then _sum and _count.
    std::uint64_t Cum = 0;
    for (std::size_t I = 0; I < S.Hist.Counts.size(); ++I) {
      Cum += S.Hist.Counts[I];
      Out += S.Name;
      Out += "_bucket{le=\"";
      Out += I < S.Hist.Edges.size() ? formatDouble(S.Hist.Edges[I])
                                     : std::string("+Inf");
      Out += "\"} ";
      std::snprintf(Buf, sizeof(Buf), "%" PRIu64, Cum);
      Out += Buf;
      Out += '\n';
    }
    Out += S.Name;
    Out += "_sum ";
    Out += formatDouble(S.Hist.Sum);
    Out += '\n';
    Out += S.Name;
    Out += "_count ";
    std::snprintf(Buf, sizeof(Buf), "%" PRIu64, S.Hist.count());
    Out += Buf;
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

MetricsRegistry::Entry *MetricsRegistry::findEntry(const std::string &Name) {
  for (Entry &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

Counter *MetricsRegistry::counter(const std::string &Name, std::string Help) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entry *E = findEntry(Name))
    return E->Type == MetricType::Counter ? E->C.get() : nullptr;
  Entry E;
  E.Name = Name;
  E.Help = std::move(Help);
  E.Type = MetricType::Counter;
  E.C = std::make_unique<Counter>();
  Counter *Handle = E.C.get();
  Entries.push_back(std::move(E));
  return Handle;
}

Gauge *MetricsRegistry::gauge(const std::string &Name, std::string Help) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entry *E = findEntry(Name))
    return E->Type == MetricType::Gauge ? E->G.get() : nullptr;
  Entry E;
  E.Name = Name;
  E.Help = std::move(Help);
  E.Type = MetricType::Gauge;
  E.G = std::make_unique<Gauge>();
  Gauge *Handle = E.G.get();
  Entries.push_back(std::move(E));
  return Handle;
}

Histogram *MetricsRegistry::histogram(const std::string &Name,
                                      std::vector<double> Edges,
                                      std::string Help) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Entry *E = findEntry(Name))
    return E->Type == MetricType::Histogram ? E->H.get() : nullptr;
  Entry E;
  E.Name = Name;
  E.Help = std::move(Help);
  E.Type = MetricType::Histogram;
  E.H = std::make_unique<Histogram>(std::move(Edges));
  Histogram *Handle = E.H.get();
  Entries.push_back(std::move(E));
  return Handle;
}

void MetricsRegistry::addCollector(const void *Owner, const std::string &Name,
                                   MetricType Type, std::string Help,
                                   std::function<double()> Sample) {
  if (Owner == nullptr || !Sample || Type == MetricType::Histogram)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (findEntry(Name) != nullptr)
    return;
  Entry E;
  E.Name = Name;
  E.Help = std::move(Help);
  E.Type = Type;
  E.Owner = Owner;
  E.Sample = std::move(Sample);
  Entries.push_back(std::move(E));
}

void MetricsRegistry::addResetHook(const void *Owner,
                                   std::function<void()> Hook) {
  if (Owner == nullptr || !Hook)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  ResetHooks.emplace_back(Owner, std::move(Hook));
}

void MetricsRegistry::removeOwner(const void *Owner) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.erase(std::remove_if(Entries.begin(), Entries.end(),
                               [Owner](const Entry &E) {
                                 return E.Owner == Owner;
                               }),
                Entries.end());
  ResetHooks.erase(std::remove_if(ResetHooks.begin(), ResetHooks.end(),
                                  [Owner](const auto &P) {
                                    return P.first == Owner;
                                  }),
                   ResetHooks.end());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot Snap;
  std::lock_guard<std::mutex> Lock(Mutex);
  Snap.Samples.reserve(Entries.size());
  for (const Entry &E : Entries) {
    MetricSample S;
    S.Name = E.Name;
    S.Help = E.Help;
    S.Type = E.Type;
    if (E.Sample)
      S.Value = E.Sample();
    else if (E.C)
      S.Value = E.C->value();
    else if (E.G)
      S.Value = E.G->value();
    else if (E.H)
      S.Hist = E.H->snapshot();
    Snap.Samples.push_back(std::move(S));
  }
  return Snap;
}

void MetricsRegistry::reset() {
  std::vector<std::function<void()>> Hooks;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (Entry &E : Entries) {
      if (E.C)
        E.C->reset();
      else if (E.G)
        E.G->reset();
      else if (E.H)
        E.H->reset();
    }
    Hooks.reserve(ResetHooks.size());
    for (const auto &P : ResetHooks)
      Hooks.push_back(P.second);
  }
  // Hooks run outside the registry lock: they reach back into
  // components (engine, service) whose own locks may wrap registry
  // calls elsewhere.
  for (const auto &Hook : Hooks)
    Hook();
}

} // namespace obs
} // namespace prdnn
