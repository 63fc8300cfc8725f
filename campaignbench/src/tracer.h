// In-memory span recorder of the traced run.
//
// Spans are opened and closed on one thread around calls into the
// library's layers. Each keeps its layer, start and end (host steady
// clock), the span that contains it and the campaign task it belongs to;
// closing a span adds its duration to its parent's child time, so a
// layer's self time is its duration minus what its children cover. The
// spans stay in memory until the run ends and are then written as CSV.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cb {

enum class Layer : std::uint8_t {
  kOsBoot,          ///< os::Kernel(version): MiniC compile + boot
  kSwfitScan,       ///< swfit::Scanner::scan
  kSnapshotCapture, ///< snapshot::capture_warm_boot
  kPlan,            ///< estimate_fault_costs + plan_chunks
  kRebuild,         ///< Controller(snapshot, cfg)
  kBaseline,        ///< Controller::run_profile_mode
  kExposure,        ///< Controller::run_iteration (one single-fault run)
  kProbe,           ///< serve probe (its self time: the request loop)
  kProbeBuild,      ///< the probe's own SUB from the snapshot
  kInjectRestore,   ///< swfit::Injector::inject / restore
  kWebHandle,       ///< web::WebServer::handle (self: the host server model)
  kOsApi,           ///< one os::OsApi call, guest VM execution included
  kSpecValidate,    ///< spec::SpecClient::validate
  kStorePut,        ///< store::encode_run_record + CampaignStore::put
  kStoreGet,        ///< CampaignStore::get + store::decode_run_record
  kMerge,           ///< merge_fault_runs + CampaignObs::merge_tasks
  kRender,          ///< the campaign_report renderers
  kCount,
};

const char* layer_name(Layer l) noexcept;

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    Layer layer{};
    std::uint32_t parent = kNoParent;
    std::uint32_t task = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;  ///< time covered by direct children
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Task id stamped on spans opened from now on (the runner's task id:
  /// 0 = the cell's baseline, 1 + iteration * positions + position).
  void set_task(std::uint32_t task) noexcept { task_ = task; }

  void open(Layer l) {
    Span s;
    s.layer = l;
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    s.task = task_;
    s.start_ns = now_ns();
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back(s);
  }

  /// Closes the innermost open span.
  void close() {
    const auto t = now_ns();
    auto& s = spans_[stack_.back()];
    stack_.pop_back();
    s.end_ns = t;
    if (s.parent != kNoParent) spans_[s.parent].child_ns += t - s.start_ns;
  }

  /// Closes open spans until `depth` remain (a call that opened a span
  /// through a hook but never reached the closing hook).
  void unwind(std::size_t depth) {
    while (stack_.size() > depth) close();
  }
  std::size_t depth() const noexcept { return stack_.size(); }

  class Scope {
   public:
    Scope(Tracer* t, Layer l) : t_(t) {
      if (t_ != nullptr) {
        depth_ = t_->depth();
        t_->open(l);
      }
    }
    ~Scope() {
      if (t_ != nullptr) t_->unwind(depth_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::size_t depth_ = 0;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes one CSV line per span: id,layer,parent,task,start_ns,end_ns,
  /// self_ns (parent -1 for a top-level span).
  void write_csv(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t task_ = 0;
};

}  // namespace cb
