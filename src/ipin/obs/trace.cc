#include "ipin/obs/trace.h"

#include <time.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "ipin/common/thread_pool.h"
#include "ipin/obs/trace_events.h"

namespace ipin::obs {

struct SpanNode {
  std::string name;
  std::string path;
  SpanNode* parent = nullptr;
  int depth = -1;  // the root sentinel sits at depth -1
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> cpu_ns{0};
  std::atomic<uint64_t> units_done{0};
  std::atomic<uint64_t> units_total{0};
  Counter* calls_counter = nullptr;
  Histogram* latency_us = nullptr;
  // By g_tree_mu; std::less<> finds a span's const char* name without
  // building a string.
  std::map<std::string, std::unique_ptr<SpanNode>, std::less<>> children;
};

namespace {

std::mutex g_tree_mu;  // guards every SpanNode::children map

SpanNode* Root() {
  static SpanNode* const root = new SpanNode();  // leaked, like the registry
  return root;
}

// The innermost open span on this thread; nullptr when none.
thread_local SpanNode* t_current = nullptr;

// Open spans that carry units, oldest first.
std::mutex g_open_mu;
std::vector<const TraceSpan*>& OpenSpans() {
  static auto* open = new std::vector<const TraceSpan*>;
  return *open;
}

// CPU time consumed by the whole process: overlapping spans each see the
// process total, which is the honest number when workers serve a phase.
uint64_t ProcessCpuNanos() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

SpanNode* FindOrCreateChild(SpanNode* parent, const char* name) {
  std::lock_guard<std::mutex> lock(g_tree_mu);
  auto it = parent->children.find(name);
  if (it != parent->children.end()) return it->second.get();

  auto node = std::make_unique<SpanNode>();
  node->name = name;
  node->path = parent == Root() ? name : parent->path + "/" + name;
  node->parent = parent;
  node->depth = parent->depth + 1;
  node->calls_counter =
      MetricsRegistry::Global().GetCounter("trace." + node->path + ".calls");
  node->latency_us =
      MetricsRegistry::Global().GetHistogram("trace." + node->path + ".us");
  SpanNode* raw = node.get();
  parent->children.emplace(node->name, std::move(node));
  return raw;
}

void CollectDepthFirst(const SpanNode& node, std::vector<SpanStats>* out) {
  for (const auto& [name, child] : node.children) {
    SpanStats stats;
    stats.name = name;
    stats.path = child->path;
    stats.depth = child->depth;
    stats.calls = child->calls.load(std::memory_order_relaxed);
    stats.total_ns = child->total_ns.load(std::memory_order_relaxed);
    stats.cpu_ns = child->cpu_ns.load(std::memory_order_relaxed);
    stats.units_done = child->units_done.load(std::memory_order_relaxed);
    stats.units_total = child->units_total.load(std::memory_order_relaxed);
    out->push_back(std::move(stats));
    CollectDepthFirst(*child, out);
  }
}

}  // namespace

TraceSpan::TraceSpan(const char* name) : TraceSpan(name, 0, false) {}

TraceSpan::TraceSpan(const char* name, uint64_t total_units)
    : TraceSpan(name, total_units, true) {}

TraceSpan::TraceSpan(const char* name, uint64_t total_units,
                     bool carries_units)
    : name_(name),
      prev_(t_current),
      prev_pool_phase_(SetCurrentPoolPhase(name)),
      carries_units_(carries_units),
      units_total_(total_units),
      start_cpu_ns_(ProcessCpuNanos()) {
  SpanNode* parent = prev_ != nullptr ? prev_ : Root();
  node_ = FindOrCreateChild(parent, name);
  t_current = node_;
  // Feed the opt-in event recorder (one relaxed load when off). The begin
  // event sits outside the measured interval, like the tree lookup.
  if (IsTraceRecording()) RecordBeginEvent(name_);
  timer_.Restart();  // exclude the tree lookup from the measured time
  // Listed only once fully constructed: the reporter reads timer_.
  if (carries_units_) {
    std::lock_guard<std::mutex> lock(g_open_mu);
    OpenSpans().push_back(this);
  }
}

TraceSpan::~TraceSpan() {
  const uint64_t ns = static_cast<uint64_t>(timer_.ElapsedSeconds() * 1e9);
  if (IsTraceRecording()) RecordEndEvent(name_);
  if (carries_units_) {
    std::lock_guard<std::mutex> lock(g_open_mu);
    auto& open = OpenSpans();
    open.erase(std::find(open.begin(), open.end(), this));
  }
  node_->calls.fetch_add(1, std::memory_order_relaxed);
  node_->total_ns.fetch_add(ns, std::memory_order_relaxed);
  node_->cpu_ns.fetch_add(ProcessCpuNanos() - start_cpu_ns_,
                          std::memory_order_relaxed);
  node_->units_done.fetch_add(units_done_.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  node_->units_total.fetch_add(units_total_, std::memory_order_relaxed);
  node_->calls_counter->Add(1);
  node_->latency_us->Record(ns / 1000);
  t_current = prev_;
  SetCurrentPoolPhase(prev_pool_phase_);
}

std::vector<SpanStats> SpanTreeSnapshot() {
  std::lock_guard<std::mutex> lock(g_tree_mu);
  std::vector<SpanStats> out;
  CollectDepthFirst(*Root(), &out);
  return out;
}

std::vector<SpanStats> OpenPhaseSpans() {
  std::vector<SpanStats> out;
  std::lock_guard<std::mutex> lock(g_open_mu);
  for (const TraceSpan* span : OpenSpans()) {
    SpanStats stats;
    stats.name = span->name_;
    stats.path = span->node_->path;
    stats.depth = span->node_->depth;
    stats.calls = 1;
    stats.total_ns =
        static_cast<uint64_t>(span->timer_.ElapsedSeconds() * 1e9);
    stats.cpu_ns = ProcessCpuNanos() - span->start_cpu_ns_;
    stats.units_done = span->units_done_.load(std::memory_order_relaxed);
    stats.units_total = span->units_total_;
    stats.active = true;
    out.push_back(std::move(stats));
  }
  return out;
}

void DumpSpanTree(std::FILE* out) {
  const std::vector<SpanStats> spans = SpanTreeSnapshot();
  if (spans.empty()) {
    std::fprintf(out, "(no spans recorded)\n");
    return;
  }
  for (const SpanStats& span : spans) {
    // Indent by depth; show the leaf name only (the path encodes the rest).
    std::fprintf(out, "%*s%-40s calls=%llu total=%.3fms\n", span.depth * 2, "",
                 span.name.c_str(), static_cast<unsigned long long>(span.calls),
                 static_cast<double>(span.total_ns) * 1e-6);
  }
}

void ResetSpanTreeForTest() {
  std::lock_guard<std::mutex> lock(g_tree_mu);
  Root()->children.clear();
  t_current = nullptr;
}

}  // namespace ipin::obs
