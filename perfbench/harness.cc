#include "harness.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/snapshot/soft_dirty.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double h = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

int SpanLog::Add(const char* name, uint64_t id, int parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) {
    return -1;
  }
  spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::SetEnd(int index, int64_t end_ns) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      const Span& parent = spans[static_cast<size_t>(span.parent)];
      const int64_t start = std::max(span.start_ns, parent.start_ns);
      const int64_t end = std::min(span.end_ns, parent.end_ns);
      if (end > start) {
        children[static_cast<size_t>(span.parent)].emplace_back(start, end);
      }
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t busy = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : covered) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) {
        busy += run_end - run_start;
      }
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) {
      busy += run_end - run_start;
    }
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - busy);
  }
  return self;
}

std::string LayerOf(const char* span_name) {
  const char* dot = std::strchr(span_name, '.');
  return dot == nullptr ? std::string(span_name) : std::string(span_name, dot);
}

void AddSelfTimes(const std::vector<Span>& spans, std::map<std::string, int64_t>* by_name) {
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    (*by_name)[spans[i].name] += self[i];
  }
}

std::map<std::string, int64_t> ByLayer(const std::map<std::string, int64_t>& by_name) {
  std::map<std::string, int64_t> by_layer;
  for (const auto& [name, ns] : by_name) {
    by_layer[LayerOf(name.c_str())] += ns;
  }
  return by_layer;
}

std::vector<double> SpanDurationsUs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

bool WriteSpanFile(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << (first ? "\n" : ",\n") << "{\"name\":" << JsonString(span.name)
          << ",\"cat\":" << JsonString(LayerOf(span.name)) << ",\"ph\":\"X\",\"pid\":1"
          << ",\"tid\":" << tid << ",\"ts\":" << JsonNumber((span.start_ns - origin) / 1e3)
          << ",\"dur\":" << JsonNumber((span.end_ns - span.start_ns) / 1e3)
          << ",\"args\":{\"id\":" << span.id << ",\"index\":" << i
          << ",\"parent\":" << span.parent << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool ModelLitTrue(const std::vector<uint8_t>& model_bits, lw::Lit lit) {
  const lw::Var v = lw::LitVar(lit);
  const size_t byte = static_cast<size_t>(v) / 8;
  const bool value = v >= 0 && byte < model_bits.size() && ((model_bits[byte] >> (v % 8)) & 1) != 0;
  return value != lw::LitSign(lit);
}

bool ModelSatisfies(const std::vector<uint8_t>& model_bits,
                    const std::vector<std::vector<lw::Lit>>& clauses) {
  for (const auto& clause : clauses) {
    if (std::none_of(clause.begin(), clause.end(),
                     [&](lw::Lit lit) { return ModelLitTrue(model_bits, lit); })) {
      return false;
    }
  }
  return true;
}

void Digest::Mix(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    value ^= (word >> (8 * i)) & 0xff;
    value *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(value));
  return hex;
}

ProcCounters ReadProcCounters() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  ProcCounters c;
  c.user_s = seconds(usage.ru_utime);
  c.sys_s = seconds(usage.ru_stime);
  c.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  c.ctx_switches = static_cast<uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  return c;
}

ProcCounters operator-(const ProcCounters& a, const ProcCounters& b) {
  ProcCounters d;
  d.user_s = a.user_s - b.user_s;
  d.sys_s = a.sys_s - b.sys_s;
  d.minor_faults = a.minor_faults - b.minor_faults;
  d.ctx_switches = a.ctx_switches - b.ctx_switches;
  return d;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::vector<std::pair<std::string, std::string>> HostContext() {
  utsname uts{};
  uname(&uts);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return {
      {"nproc", std::to_string(OnlineCpus())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", compiler},
      {"kernel", std::string(uts.sysname) + " " + uts.release},
      {"soft_dirty", lw::SoftDirtyTracker::Supported() ? "supported" : "unsupported"},
  };
}

void SnapshotTotals::Add(const lw::SessionStats& after, const lw::SessionStats& before) {
  snapshots += after.snapshots - before.snapshots;
  restores += after.restores - before.restores;
  snapshot_ns += after.snapshot_ns - before.snapshot_ns;
  restore_ns += after.restore_ns - before.restore_ns;
  pages_materialized += after.pages_materialized - before.pages_materialized;
  pages_restored += after.pages_restored - before.pages_restored;
  restore_mprotect_calls += after.restore_mprotect_calls - before.restore_mprotect_calls;
}

void SnapshotTotals::Merge(const SnapshotTotals& other) {
  snapshots += other.snapshots;
  restores += other.restores;
  snapshot_ns += other.snapshot_ns;
  restore_ns += other.restore_ns;
  pages_materialized += other.pages_materialized;
  pages_restored += other.pages_restored;
  restore_mprotect_calls += other.restore_mprotect_calls;
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void Add(RunResult* result, const std::string& name, double value, const char* unit) {
  result->per_layer.push_back({name, value, unit});
}

}  // namespace

void AddSnapshotMetrics(const SnapshotTotals& t, RunResult* result) {
  Add(result, "snapshot.snapshot_us", Ratio(t.snapshot_ns, t.snapshots) / 1e3, "us");
  Add(result, "snapshot.restore_us", Ratio(t.restore_ns, t.restores) / 1e3, "us");
  Add(result, "snapshot.pages_per_snapshot", Ratio(t.pages_materialized, t.snapshots), "count");
  Add(result, "snapshot.pages_per_restore", Ratio(t.pages_restored, t.restores), "count");
  Add(result, "snapshot.mprotect_per_restore", Ratio(t.restore_mprotect_calls, t.restores),
      "count");
}

void AddStoreMetrics(const lw::PageStore::Stats& b, const lw::PageStore::Stats& a,
                     uint64_t peak_live_bytes, uint64_t peak_resident_bytes, RunResult* result) {
  const uint64_t hits =
      (a.zero_dedup_hits - b.zero_dedup_hits) + (a.content_dedup_hits - b.content_dedup_hits);
  const uint64_t publishes = hits + (a.total_published - b.total_published);
  auto count = [](uint64_t n) { return static_cast<double>(n); };
  Add(result, "store.dedup_ratio", Ratio(hits, publishes), "ratio");
  Add(result, "store.cross_session_dedup_hits",
      count(a.cross_session_dedup_hits - b.cross_session_dedup_hits), "count");
  Add(result, "store.live_mib", count(peak_live_bytes) / (1 << 20), "MiB");
  Add(result, "store.resident_mib", count(peak_resident_bytes) / (1 << 20), "MiB");
  Add(result, "store.release_locks_per_batch",
      Ratio(a.release_shard_locks - b.release_shard_locks, a.release_batches - b.release_batches),
      "count");
  Add(result, "store.compressions", count(a.compressions - b.compressions), "count");
  Add(result, "store.decompressions", count(a.decompressions - b.decompressions), "count");
  Add(result, "store.spills", count(a.spills - b.spills), "count");
  Add(result, "store.faultbacks", count(a.faultbacks - b.faultbacks), "count");
  // Spilled bytes per live byte: how far past residency the logical
  // population reaches (bytes_logical / bytes_live - 1; 0 with nothing spilled).
  Add(result, "store.logical_over_live", Ratio(a.spill_bytes, a.bytes_live()), "ratio");
}

void AddProcMetrics(const ProcCounters& proc, RunResult* result) {
  Add(result, "proc.cpu_user_s", proc.user_s, "s");
  Add(result, "proc.cpu_sys_s", proc.sys_s, "s");
  Add(result, "proc.minor_faults", static_cast<double>(proc.minor_faults), "count");
  Add(result, "proc.ctx_switches", static_cast<double>(proc.ctx_switches), "count");
}

void AddSelfTimeMetrics(const std::map<std::string, int64_t>& self_ns_by_name, double operations,
                        RunResult* result) {
  for (const auto& [layer, ns] : ByLayer(self_ns_by_name)) {
    Add(result, layer + ".self_us", static_cast<double>(ns) / 1e3 / std::max(1.0, operations),
        "us");
  }
}

void RunResult::Fail(const std::string& error) {
  correct = false;
  if (errors.size() < 20) {
    errors.push_back(error);
  }
}

void RunResult::Count(bool ok, const std::string& error_if_failed) {
  ++attempted;
  if (!ok) {
    ++failed;
    Fail(error_if_failed);
  }
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer, &report}) {
    for (const Metric& metric : *list) {
      if (metric.name == name) {
        return &metric;
      }
    }
  }
  return nullptr;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace perfbench
