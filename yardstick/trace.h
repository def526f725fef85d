// Layer-boundary tracing for the traced benchmark run.
//
// The benchmark times the calls that cross each layer boundary from its own
// code, without touching the program: a forwarding AtomicBroadcast sits
// between the OTP replica and its broadcast endpoint (spanning broadcast()
// and the three delivery callbacks), and a forwarding ReplicaBase sits
// between the clients and the replica (spanning the submit calls and the
// commit hook). Spans are kept in memory with their parent, so a span's self
// time is its duration minus what its children cover; they are summarised
// when the episode ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <utility>
#include <vector>

#include "abcast/abcast.h"
#include "core/admission.h"
#include "core/cluster.h"
#include "core/otp_replica.h"
#include "core/replica_base.h"

namespace yardstick {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole (single-threaded) process. The cost metrics use it
/// instead of wall time so that time blocked in the durable backend's fsync
/// measures the shared disk, not the code, and stays out of them.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

enum class SpanKind : std::uint8_t {
  setup,        // Cluster construction + driver start
  slice,        // one run_for slice of the submission window
  quiesce,      // Cluster::quiesce
  verify,       // 1CSR check over the recorded history
  submit,       // ReplicaBase::submit_update / submit_update_multi / submit_query
  broadcast,    // AtomicBroadcast::broadcast (network send included)
  opt_deliver,  // the replica's Opt-deliver callback
  to_deliver,   // the replica's TO-deliver callback (single or batched)
  commit_hook,  // the HistoryRecorder commit hook
  kCount,
};
inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount);

/// Per-kind totals of one traced episode.
struct SpanSummary {
  std::array<std::uint64_t, kSpanKinds> items{};  // calls; messages for to_deliver batches
  std::array<std::int64_t, kSpanKinds> total_ns{};
  std::array<std::int64_t, kSpanKinds> self_ns{};

  std::uint64_t items_of(SpanKind k) const { return items[static_cast<std::size_t>(k)]; }
  double total(SpanKind k) const { return static_cast<double>(total_ns[static_cast<std::size_t>(k)]); }
  double self(SpanKind k) const { return static_cast<double>(self_ns[static_cast<std::size_t>(k)]); }
};

class Tracer {
 public:
  struct Span {
    SpanKind kind;
    std::int32_t parent;  // index into spans_, -1 for a root
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };

  /// RAII span; a null tracer makes it a no-op, so untraced code paths share
  /// the traced ones.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanKind kind, std::uint64_t items = 1) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(kind, items);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  Tracer() { spans_.reserve(1 << 20); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sim-time latency of every completed snapshot query (ns).
  std::vector<double>& query_latency_ns() { return query_latency_ns_; }

  SpanSummary summarize() const {
    SpanSummary s;
    for (const Span& span : spans_) {
      const auto k = static_cast<std::size_t>(span.kind);
      const std::int64_t d = span.end_ns - span.begin_ns;
      s.total_ns[k] += d;
      s.self_ns[k] += d;
      if (span.parent >= 0) s.self_ns[static_cast<std::size_t>(spans_[span.parent].kind)] -= d;
    }
    s.items = items_;
    return s;
  }

 private:
  std::int32_t open(SpanKind kind, std::uint64_t items) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    items_[static_cast<std::size_t>(kind)] += items;
    spans_.push_back(Span{kind, open_, wall_ns(), 0});
    open_ = index;
    return index;
  }
  void close(std::int32_t index) {
    spans_[index].end_ns = wall_ns();
    open_ = spans_[index].parent;
  }

  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::array<std::uint64_t, kSpanKinds> items_{};
  std::vector<double> query_latency_ns_;
};

/// Forwards to the site's real broadcast endpoint, spanning broadcast() and
/// the delivery callbacks the replica registers.
class TracedAbcast final : public otpdb::AtomicBroadcast {
 public:
  TracedAbcast(otpdb::AtomicBroadcast& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  otpdb::MsgId broadcast(otpdb::PayloadPtr payload) override {
    Tracer::Scope span(&tracer_, SpanKind::broadcast);
    return inner_.broadcast(std::move(payload));
  }

  void set_callbacks(otpdb::AbcastCallbacks callbacks) override {
    Tracer* t = &tracer_;
    otpdb::AbcastCallbacks wrapped;
    if (callbacks.opt_deliver) {
      wrapped.opt_deliver = [t, fn = std::move(callbacks.opt_deliver)](const otpdb::Message& m) {
        Tracer::Scope span(t, SpanKind::opt_deliver);
        fn(m);
      };
    }
    if (callbacks.to_deliver) {
      wrapped.to_deliver = [t, fn = std::move(callbacks.to_deliver)](const otpdb::MsgId& id,
                                                                     otpdb::TOIndex index) {
        Tracer::Scope span(t, SpanKind::to_deliver);
        fn(id, index);
      };
    }
    if (callbacks.to_deliver_batch) {
      wrapped.to_deliver_batch = [t, fn = std::move(callbacks.to_deliver_batch)](
                                     std::span<const otpdb::ToDelivery> batch) {
        Tracer::Scope span(t, SpanKind::to_deliver, batch.size());
        fn(batch);
      };
    }
    inner_.set_callbacks(std::move(wrapped));
  }

  otpdb::SiteId site() const override { return inner_.site(); }
  const otpdb::AbcastStats& stats() const override { return inner_.stats(); }
  bool backpressured() const override { return inner_.backpressured(); }

 private:
  otpdb::AtomicBroadcast& inner_;
  Tracer& tracer_;
};

/// Forwards to an OTP replica built over a TracedAbcast, spanning the client
/// submit calls and the commit hook and recording query latencies.
class TracedReplica final : public otpdb::ReplicaBase {
 public:
  TracedReplica(std::unique_ptr<TracedAbcast> abcast, std::unique_ptr<otpdb::ReplicaBase> inner,
                Tracer& tracer)
      : abcast_(std::move(abcast)), inner_(std::move(inner)), tracer_(tracer) {}

  otpdb::SubmitResult submit_update(otpdb::ProcId proc, otpdb::ClassId klass,
                                    otpdb::TxnArgs args, otpdb::SimTime exec_duration,
                                    otpdb::SimTime deadline) override {
    Tracer::Scope span(&tracer_, SpanKind::submit);
    return inner_->submit_update(proc, klass, std::move(args), exec_duration, deadline);
  }

  otpdb::SubmitResult submit_update_multi(otpdb::ProcId proc,
                                          std::vector<otpdb::ClassId> classes,
                                          otpdb::TxnArgs args, otpdb::SimTime exec_duration,
                                          otpdb::SimTime deadline) override {
    Tracer::Scope span(&tracer_, SpanKind::submit);
    return inner_->submit_update_multi(proc, std::move(classes), std::move(args),
                                       exec_duration, deadline);
  }

  void submit_query(otpdb::QueryFn fn, otpdb::SimTime exec_duration,
                    otpdb::QueryDoneFn done) override {
    Tracer::Scope span(&tracer_, SpanKind::submit);
    inner_->submit_query(std::move(fn), exec_duration,
                         [t = &tracer_, done = std::move(done)](const otpdb::QueryReport& r) {
                           t->query_latency_ns().push_back(
                               static_cast<double>(r.completed_at - r.submitted_at));
                           if (done) done(r);
                         });
  }

  void set_commit_hook(otpdb::CommitHook hook) override {
    inner_->set_commit_hook([t = &tracer_, hook = std::move(hook)](const otpdb::CommitRecord& r) {
      Tracer::Scope span(t, SpanKind::commit_hook);
      hook(r);
    });
  }

  std::size_t in_flight() const override { return inner_->in_flight(); }
  const otpdb::ReplicaMetrics& metrics() const override { return inner_->metrics(); }
  otpdb::SiteId site() const override { return inner_->site(); }

 private:
  std::unique_ptr<TracedAbcast> abcast_;  // outlives inner_, which holds a reference
  std::unique_ptr<otpdb::ReplicaBase> inner_;
  Tracer& tracer_;
};

/// The traced run's replica factory. Cluster::build configures admission on
/// the replica it gets back (the wrapper), so the wrapped engine is
/// configured here with the same cluster-wide policy.
inline otpdb::ReplicaFactory traced_factory(Tracer& tracer, otpdb::AdmissionConfig admission) {
  return [&tracer, admission](const otpdb::ReplicaDeps& d) -> std::unique_ptr<otpdb::ReplicaBase> {
    auto abcast = std::make_unique<TracedAbcast>(d.abcast, tracer);
    auto replica = std::make_unique<otpdb::OtpReplica>(d.sim, *abcast, d.storage, d.catalog,
                                                       d.registry, d.site);
    replica->configure_admission(admission);
    return std::make_unique<TracedReplica>(std::move(abcast), std::move(replica), tracer);
  };
}

}  // namespace yardstick
