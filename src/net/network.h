// Simulated network segment with selectable topology.
//
// The default (flat/lan profiles) models the testbed of the paper's Figure 1
// experiment (shared Ethernet with IP multicast): one shared medium that
// serializes frames, a propagation / protocol-stack floor per receiver, and
// receive-side jitter. The jitter model is bimodal - most packets see only
// microsecond-scale noise, a small fraction hit a "hiccup" (kernel
// scheduling, interrupt coalescing) with a much larger exponential delay.
// That bimodality is what makes spontaneous total order common for
// well-spaced sends and increasingly rare as the send interval approaches
// zero, reproducing the shape of Figure 1.
//
// Switched topology profiles (metro, wan, geo-3dc - see net/topology.h)
// replace the single bus with per-sender links and a per-site-pair delay
// matrix: every (from, to) edge has its own base delay, jitter distribution,
// and an independent rng stream, so geo-replicated latency structure is
// first-class. Every delivery on an edge takes at least
// serialization_time + edge(from, to).base_delay: link wait, uniform noise,
// and hiccup delays are all non-negative.
//
// The model also supports per-receiver message loss (with transport-level
// retransmission so channels stay reliable, as the paper assumes), site
// crash/recovery, and network partitions, all deterministic under a seed.
// Sends are processed inline at the sender's clock; every delivery is one
// simulator event that re-checks crash, partition and chaos state when it
// fires and then invokes the receiver's handler.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "net/fault_plan.h"
#include "net/message.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace otpdb {

/// Timing and fault parameters of the simulated segment.
struct NetConfig {
  /// Time a frame occupies the shared medium (10 Mbit/s, ~128-byte frames).
  /// Switched topologies charge it per sender link instead of per bus.
  SimTime serialization_time = 100 * kMicrosecond;
  /// Fixed propagation + stack traversal floor applied to every delivery.
  SimTime base_delay = 50 * kMicrosecond;
  /// Uniform receive-side noise in [0, noise_max) added to every delivery.
  SimTime noise_max = 20 * kMicrosecond;
  /// Probability that a delivery hits a scheduling hiccup. The default pair
  /// (6 %, 310 us) is calibrated against the paper's Figure 1 anchors:
  /// ~82 % spontaneously ordered messages under a saturated 10 Mbit/s bus and
  /// ~99 % at a 4 ms per-site send interval (see bench/fig1_spontaneous_order).
  double hiccup_prob = 0.06;
  /// ...with an additional exponential delay of this mean.
  SimTime hiccup_mean = 310 * kMicrosecond;
  /// Per-delivery drop probability; dropped frames are retransmitted after rto.
  double loss_prob = 0.0;
  /// Retransmission timeout applied per drop.
  SimTime retransmit_timeout = 10 * kMillisecond;
  /// Latency structure: flat keeps the fields above as the single shared
  /// segment; other profiles materialize a per-site-pair matrix (the fields
  /// above still supply the frame serialization time, loss model, and - for
  /// the lan profile - the uniform edge parameters). See net/topology.h.
  TopologyProfile topology = TopologyProfile::flat;
};

/// Deterministic simulated network connecting n sites.
///
/// All sends are stamped with a MsgId (per-sender sequence). Deliveries invoke
/// the receiver's subscribed handler for the message's channel. Crashed sites
/// neither send nor receive; partitioned site pairs do not exchange messages
/// while the partition holds.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(Simulator& sim, std::size_t n_sites, NetConfig config, Rng rng);

  std::size_t site_count() const { return site_count_; }
  const NetConfig& config() const { return config_; }
  /// The materialized per-site-pair matrix (empty/flat for the default).
  const TopologyMatrix& topology() const { return topo_; }
  /// True when this topology uses per-sender links.
  bool switched() const { return switched_; }

  /// Registers the handler invoked when `site` receives a message on `channel`.
  /// At most one handler per (site, channel).
  void subscribe(SiteId site, Channel channel, Handler handler);

  /// Broadcasts to every site, including the sender itself (IP-multicast
  /// loopback included). Returns the assigned message id.
  MsgId multicast(SiteId from, Channel channel, PayloadPtr payload);

  /// Point-to-point send. Returns the assigned message id.
  MsgId unicast(SiteId from, SiteId to, Channel channel, PayloadPtr payload);

  /// Crash fault injection: a crashed site sends and receives nothing.
  void crash(SiteId site);
  void recover(SiteId site);
  bool crashed(SiteId site) const { return crashed_[site]; }

  /// Partition fault injection (symmetric): messages between the two groups
  /// are parked while the partition holds and delivered after healing -
  /// channels stay reliable (the paper's model); only crashes lose messages.
  void partition(const std::vector<SiteId>& group_a, const std::vector<SiteId>& group_b);
  void heal_partition();

  /// Arms the chaos plane: executes `config.plan` deterministically from
  /// `chaos_rng` (split per edge in switched mode) and, when the plan can
  /// duplicate or `config.transport_dedup` is set, suppresses re-deliveries
  /// of already-seen MsgIds per receiver. Call once, before the run starts;
  /// a run without arm_chaos draws nothing from the chaos streams and is
  /// bit-identical to pre-chaos builds.
  void arm_chaos(const ChaosConfig& config, Rng chaos_rng);
  bool chaos_armed() const { return chaos_ != nullptr || dedup_; }
  /// Chaos counters (all zero when no plan is armed).
  const ChaosStats& chaos_stats() const { return chaos_stats_; }

  /// Total messages delivered (for bench counters).
  std::uint64_t delivered_count() const { return delivered_; }

  /// Arrival-order recording used by the Figure 1 experiment: when enabled,
  /// every delivery on `channel` is appended to the per-site arrival log.
  void record_arrivals(Channel channel);
  const std::vector<std::vector<MsgId>>& arrival_logs() const { return arrival_logs_; }

 private:
  static constexpr SiteId kEveryone = static_cast<SiteId>(-1);

  /// Puts one frame on the sender's medium (the shared bus, or the sender's
  /// own link when switched) and transmits it to `to` or, for kEveryone, to
  /// every live site in ascending order.
  MsgId send(SiteId from, SiteId to, Channel channel, PayloadPtr payload);
  /// Draws one receiver's delay (jitter, loss retransmissions, chaos) and
  /// schedules the delivery, plus a duplicate when chaos injects one.
  void transmit(SiteId from, SiteId to, const Message& msg, SimTime on_wire);
  void deliver(SiteId to, Message msg, SimTime fire_at);
  /// Delivery event: fault checks at fire time, then arrival log + handler.
  void deliver_now(std::uint32_t slot);
  /// Replays every parked message whose partition AND chaos blocks have
  /// lifted, with a fresh post-heal receiver delay; still-blocked messages
  /// stay parked (heal_partition, chaos transitions).
  void release_unblocked();
  /// True (and counted) when the chaos plane blocks this edge right now.
  bool chaos_blocked(SiteId from, SiteId to) {
    if (chaos_ == nullptr || !chaos_->blocked(from, to)) return false;
    ++chaos_stats_.deliveries_parked;
    return true;
  }
  /// Dedup filter: true when this MsgId was already delivered to `to` and the
  /// re-delivery must be suppressed. No-op unless dedup is armed.
  bool duplicate_suppressed(SiteId to, const Message& msg) {
    if (!dedup_) return false;
    if (seen_[to].insert(msg.id).second) return false;
    ++chaos_stats_.duplicates_suppressed;
    return true;
  }
  const EdgeParams& edge_params(SiteId from, SiteId to) const {
    return topo_.flat() ? flat_edge_ : topo_.edge(from, to);
  }
  /// The stream receiver delays on (from, to) draw from: the one bus stream,
  /// or the edge's own stream when switched.
  Rng& delay_rng(SiteId from, SiteId to) {
    return switched_ ? edge_rngs_[from * site_count_ + to] : rng_;
  }
  /// Likewise for the chaos plane's per-message draws.
  Rng& chaos_rng(SiteId from, SiteId to) {
    return switched_ ? chaos_edge_rngs_[from * site_count_ + to] : chaos_rng_;
  }
  static SimTime sample_receiver_delay(Rng& rng, const EdgeParams& edge);

  // In-flight messages live in a recycled slab; the scheduled event captures
  // only {this, slot}, which fits the simulator's inline action buffer - no
  // heap allocation per delivery.
  struct PendingDelivery {
    SiteId to = 0;
    Message msg;
  };

  Simulator& sim_;
  std::size_t site_count_;
  NetConfig config_;
  TopologyMatrix topo_;
  EdgeParams flat_edge_;  // the NetConfig fields as an EdgeParams (flat path)
  bool switched_ = false;
  Rng rng_;
  std::vector<std::uint64_t> next_seq_;                 // per sender
  std::vector<std::vector<Handler>> handlers_;          // [site][channel]
  std::vector<bool> crashed_;
  std::vector<std::uint32_t> partition_group_;          // 0 = none/all together
  SimTime bus_free_at_ = 0;                             // shared-bus serialization
  std::vector<SimTime> link_free_at_;                   // switched: per sender NIC
  std::vector<Rng> edge_rngs_;                          // switched: [from*n+to]
  std::uint64_t delivered_ = 0;
  std::vector<PendingDelivery> in_flight_;        // slab, indexed by slot
  std::vector<std::uint32_t> free_flight_slots_;
  std::vector<std::vector<Message>> held_by_;     // per receiver, parked by a partition
  std::optional<Channel> recorded_channel_;
  std::vector<std::vector<MsgId>> arrival_logs_;

  // Chaos plane (null/empty unless arm_chaos ran; the chaos rng streams are
  // split lazily there, so chaos-off runs never perturb the base streams).
  std::unique_ptr<ChaosRuntime> chaos_;
  Rng chaos_rng_{0};                     // flat path: the one chaos stream
  std::vector<Rng> chaos_edge_rngs_;     // switched path: [from*n+to]
  bool dedup_ = false;
  std::vector<std::unordered_set<MsgId>> seen_;  // per receiver
  ChaosStats chaos_stats_;
};

}  // namespace otpdb
