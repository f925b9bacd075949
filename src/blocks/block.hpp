// Shared machinery for protocol blocks.
//
// Blocks (bid agreement, input validation, common coin, data transfer,
// output agreement) are *sans-I/O state machines*: they are driven by
// start() and handle(msg), send through an Endpoint, and expose their result
// by polling. They know nothing about transports or runtimes, which makes
// them unit-testable deterministically and reusable across the virtual-time,
// threaded, and TCP runtimes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/outcome.hpp"
#include "crypto/rng.hpp"
#include "net/message.hpp"

namespace dauct::blocks {

/// The side-effect interface a block uses to talk to the world.
/// Implemented by each runtime.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// This provider's id (0..m-1).
  virtual NodeId self() const = 0;

  /// Number of providers m.
  virtual std::size_t num_providers() const = 0;

  /// Send `payload` on `topic` to provider `to`. The payload is a shared
  /// immutable buffer: implementations alias it (refcount bump), they never
  /// deep-copy it. Plain `Bytes` arguments convert implicitly (one buffer
  /// allocation, after which all hops share it).
  virtual void send(NodeId to, const net::Topic& topic, SharedBytes payload) = 0;

  /// Node-local randomness (commitment values and nonces). NOT shared
  /// randomness — that is what the common coin produces.
  virtual crypto::Rng& rng() = 0;

  /// Virtual-time timer support for the reliability layer (net/reliable.hpp):
  /// run `fn` after `delay_ns` of virtual time in this node's execution
  /// context. Returns false when the runtime has no timer facility (the
  /// default — thread/TCP runtimes); callers must degrade to timeout-free
  /// behaviour. Wrapper endpoints forward to the wrapped endpoint.
  virtual bool schedule_after(std::int64_t delay_ns, std::function<void()> fn);

  /// Node-local virtual time in ns: when this node's current handler or
  /// timer started. The reliability layer's round-trip clock; endpoints
  /// without timers (the default) return 0 — their links never track sends,
  /// so nothing reads it there.
  virtual std::int64_t local_time() const { return 0; }

  /// Virtual time of the event being handled, in ns: the time
  /// schedule_after() counts its delay from. The reliability layer keeps
  /// retransmit deadlines in this time; endpoints without timers return 0.
  virtual std::int64_t event_time() const { return 0; }

  /// Round liveness timeout of the reliability layer, in virtual ns; 0 (the
  /// default) disables the round watchdogs (RoundCollector::arm is a no-op).
  virtual std::int64_t round_timeout() const { return 0; }

  /// Send to all m providers, *including self* (self-delivery keeps round
  /// bookkeeping uniform: every round collects exactly m messages). The
  /// topic, payload bytes, and digest slot are allocated once; every
  /// recipient's copy aliases them.
  void broadcast(const net::Topic& topic, const SharedBytes& payload);
};

/// Join topic components: topic_join("ba", "vote") == "ba/vote".
std::string topic_join(std::string_view prefix, std::string_view leaf);

/// True if `topic` equals `prefix` or starts with `prefix` + '/'.
bool topic_has_prefix(std::string_view topic, std::string_view prefix);

/// Collects exactly one payload per provider for one protocol round.
/// Payloads are stored as shared immutables: collecting `msg.payload` is a
/// refcount bump on the delivered buffer, not a deep copy.
class RoundCollector {
 public:
  explicit RoundCollector(std::size_t num_providers);

  /// Record a payload from `from`. Returns false on duplicate or
  /// out-of-range sender (a protocol violation the caller turns into ⊥).
  bool add(NodeId from, SharedBytes payload);

  bool complete() const { return received_ == payloads_.size(); }
  std::size_t received() const { return received_; }

  /// Payloads indexed by NodeId; valid once complete().
  const std::vector<SharedBytes>& payloads() const { return payloads_; }

  bool has(NodeId from) const { return from < seen_.size() && seen_[from]; }

  /// Arm the round liveness watchdog: while the round is incomplete, every
  /// `endpoint.round_timeout()` of virtual time, send a targeted re-request
  /// (net::kRetransmitRequestTopicName, payload = the round topic string) to
  /// every provider whose contribution is still missing — the peer's
  /// ReliableLink answers from its last-sent cache. Re-arms at most
  /// kMaxRoundRequeries times, so an unrecoverable round drains instead of
  /// spinning. A no-op when the endpoint has no timer facility or its
  /// round_timeout() is zero (reliability off: nothing changes).
  void arm(Endpoint& endpoint, const net::Topic& topic);

  /// Drop the watchdog (call when the owning block finishes for any reason
  /// other than this round completing; completion disarms automatically).
  void cancel() { watch_.reset(); }

 private:
  /// Re-request rounds per armed collector before giving up on the round.
  static constexpr std::size_t kMaxRoundRequeries = 16;

  struct Watch {
    Endpoint* endpoint;
    net::Topic topic;
    const RoundCollector* round;
    std::size_t fires_left;
  };
  static void schedule_watch(const std::shared_ptr<Watch>& watch,
                             std::int64_t timeout);

  std::vector<SharedBytes> payloads_;
  std::vector<bool> seen_;
  std::size_t received_ = 0;
  std::shared_ptr<Watch> watch_;  ///< null unless armed
};

}  // namespace dauct::blocks
