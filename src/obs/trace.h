// Structured per-query tracing: a TraceSpan tree records what a pipeline
// run actually did — one span per stage / operator / subquery, each with a
// name, wall time, key/value attributes and child spans.
//
// Determinism contract: everything in a span except its `seconds` field is
// a deterministic function of the inputs — names, attributes and children
// are identical at every thread count and on every run over the same data.
// Renders therefore come in two flavors: ToString(false) (the default)
// omits timings and is byte-identical across thread counts, which is what
// the EXPLAIN ANALYZE differential tests assert; ToString(true) decorates
// each line with attributes and wall time.
//
// Concurrency model: a span is NOT internally synchronized. Parallel
// regions never append to a shared span directly; instead the fan-out site
// preallocates one span slot per task (see MakeSlots), each task records
// into its own slot, and the slots are adopted into the parent in slot
// order after the join — the same merge-in-index-order discipline the
// morsel executor uses for row outputs.

#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace qp::obs {

/// \brief One node of a trace tree.
///
/// Move-only (children are held by unique_ptr so AddChild can hand out
/// pointers that stay valid while later children are appended).
class TraceSpan {
 public:
  TraceSpan() = default;
  explicit TraceSpan(std::string name) : name_(std::move(name)) {}

  TraceSpan(TraceSpan&&) = default;
  TraceSpan& operator=(TraceSpan&&) = default;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Parallel-track hint for trace export: 0 (the default) renders on the
  /// parent's track, i > 0 marks this span as slot i of a parallel fan-out
  /// and TraceToChromeJson gives it its own track (tid). Fan-out sites set
  /// it from the slot index whether their morsels run pooled or inline, so
  /// it is part of the deterministic shape (SameShape compares it).
  size_t track() const { return track_; }
  void set_track(size_t track) { track_ = track; }

  /// Wall time of the span. Excluded from deterministic renders and from
  /// SameShape — it is the only field allowed to vary between runs.
  double seconds() const { return seconds_; }
  void set_seconds(double s) { seconds_ = s; }

  const std::vector<std::pair<std::string, std::string>>& attrs() const {
    return attrs_;
  }
  void AddAttr(std::string key, std::string value);
  void AddAttr(std::string key, const char* value);
  void AddAttr(std::string key, size_t value);
  void AddAttr(std::string key, double value);

  /// Appends a child span and returns a pointer that remains valid while
  /// further children are appended (children are heap-allocated).
  TraceSpan* AddChild(std::string name);
  /// Moves an externally built span (e.g. a parallel task's slot) into the
  /// children, preserving append order.
  TraceSpan* Adopt(TraceSpan&& child);

  size_t num_children() const { return children_.size(); }
  const TraceSpan& child(size_t i) const { return *children_[i]; }
  TraceSpan& child(size_t i) { return *children_[i]; }

  /// Transplants this span's children (e.g. from a privately owned root
  /// into a caller-provided sink): TakeChildren empties this span and
  /// AdoptChildren appends the batch preserving order. This is how
  /// serve::Session records a query-log trace and still honors the caller's
  /// PersonalizeOptions::trace in one pass.
  std::vector<std::unique_ptr<TraceSpan>> TakeChildren() {
    return std::move(children_);
  }
  void AdoptChildren(std::vector<std::unique_ptr<TraceSpan>> children) {
    for (auto& child : children) children_.push_back(std::move(child));
  }

  /// Renders the subtree, one line per span, children indented two spaces.
  /// `analyze` additionally prints "(k=v, ...)" attributes and "[x.xxx ms]"
  /// wall times; without it the output is the deterministic plan shape.
  /// The root's own line is included; use RenderChildren to skip it.
  std::string ToString(bool analyze = false) const;
  /// Renders only the children (the usual case when the root is a synthetic
  /// per-call wrapper).
  std::string RenderChildren(bool analyze = false) const;

  /// Structural equality ignoring every `seconds` field: names, attrs and
  /// children must match recursively. This is the cross-thread-count
  /// determinism predicate the tests assert.
  bool SameShape(const TraceSpan& other) const;

  /// Preallocates `n` spans for a parallel fan-out: task i records into
  /// slot i, then the caller adopts the slots in index order.
  static std::vector<TraceSpan> MakeSlots(size_t n) {
    return std::vector<TraceSpan>(n);
  }

 private:
  void Render(bool analyze, int indent, std::string* out) const;

  std::string name_;
  double seconds_ = 0.0;
  size_t track_ = 0;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<std::unique_ptr<TraceSpan>> children_;
};

/// RAII timer: stamps `span->seconds()` with the elapsed wall time on
/// destruction (or on Stop). A null span makes it a no-op, so call sites
/// can time unconditionally.
class SpanTimer {
 public:
  explicit SpanTimer(TraceSpan* span)
      : span_(span), start_(std::chrono::steady_clock::now()) {}
  ~SpanTimer() { Stop(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void Stop() {
    if (span_ == nullptr) return;
    span_->set_seconds(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count());
    span_ = nullptr;
  }

 private:
  TraceSpan* span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace qp::obs
