#include "core/provider_engine.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "serde/auction_codec.hpp"
#include "serde/codec.hpp"

namespace dauct::core {

namespace {
TaskGraph build_validated(const AuctionAdapter& adapter, const EngineConfig& cfg) {
  if (cfg.m <= 2 * cfg.k) {
    throw std::invalid_argument(
        "ProviderEngine: the rational consensus block requires m > 2k");
  }
  TaskGraph graph = adapter.build(cfg.num_bidders, cfg.m, cfg.k);
  if (auto err = graph.validate(cfg.m, cfg.k)) {
    throw std::invalid_argument("ProviderEngine: invalid task graph: " + *err);
  }
  return graph;
}
}  // namespace

ProviderEngine::ProviderEngine(blocks::Endpoint& endpoint, const EngineConfig& config,
                               const AuctionAdapter& adapter, auction::Ask my_ask)
    : endpoint_(endpoint),
      config_(config),
      my_ask_(my_ask),
      bid_agreement_(endpoint_, "ba", config.num_bidders, config.limits,
                     config.agreement_mode),
      allocator_(endpoint_, "alloc", build_validated(adapter, config), config.k,
                 adapter.reentrant_compute() ? nullptr : &adapter.compute_mutex()),
      ask_topic_("ask/x"),
      asks_(config.m),
      abort_topic_("abort") {}

void ProviderEngine::start(const std::vector<auction::Bid>& my_bids) {
  // Ask exchange and bid agreement run concurrently from the start.
  serde::Writer w;
  serde::write_ask(w, my_ask_);
  endpoint_.broadcast(ask_topic_, w.take());
  asks_.arm(endpoint_, ask_topic_);
  bid_agreement_.start(my_bids);
}

void ProviderEngine::local_abort(Bottom bottom) {
  if (outcome_) return;
  asks_.cancel();
  outcome_ = auction::AuctionOutcome(bottom);
  if (!abort_sent_) {
    abort_sent_ = true;
    serde::Writer w;
    w.u8(static_cast<std::uint8_t>(bottom.reason));
    endpoint_.broadcast(abort_topic_, w.take());
  }
}

void ProviderEngine::maybe_start_allocator() {
  if (allocator_started_ || outcome_) return;
  if (!agreed_bids_ || !asks_.complete()) return;
  allocator_started_ = true;

  auction::AuctionInstance instance;
  instance.bids = *agreed_bids_;
  instance.asks = ask_vector_;
  allocator_.start(serde::encode_instance(instance));
  if (allocator_.done()) finish_from_allocator();
}

void ProviderEngine::finish_from_allocator() {
  if (outcome_) return;
  const auto& r = *allocator_.result();
  if (r.is_bottom()) {
    local_abort(r.bottom());
    return;
  }
  auto result = serde::decode_result(BytesView(r.value()));
  if (!result) {
    local_abort(Bottom{AbortReason::kProtocolViolation, "undecodable final result"});
    return;
  }
  outcome_ = auction::AuctionOutcome(std::move(*result));
}

void ProviderEngine::on_message(const net::Message& msg) {
  if (msg.topic == abort_topic_) {
    if (!outcome_ && msg.from < config_.m) {
      DAUCT_DEBUG("provider " << endpoint_.self() << ": cascaded abort from "
                              << msg.from);
      asks_.cancel();
      outcome_ = auction::AuctionOutcome(
          Bottom{AbortReason::kCascaded,
                 "abort notified by provider " + std::to_string(msg.from)});
    }
    return;
  }
  if (outcome_) return;  // finished: ignore stragglers

  if (msg.topic == ask_topic_) {
    serde::Reader r(BytesView(msg.payload));
    const auto ask = serde::read_ask(r);
    if (!ask || !r.at_end() || ask->provider != msg.from ||
        ask->capacity.is_negative()) {
      local_abort(Bottom{AbortReason::kProtocolViolation,
                         "malformed ask from provider " + std::to_string(msg.from)});
      return;
    }
    if (!asks_.add(msg.from, msg.payload)) {
      local_abort(Bottom{AbortReason::kProtocolViolation, "duplicate ask"});
      return;
    }
    if (asks_.complete()) {
      ask_vector_.clear();
      for (NodeId j = 0; j < config_.m; ++j) {
        serde::Reader rr(BytesView(asks_.payloads()[j]));
        ask_vector_.push_back(*serde::read_ask(rr));
      }
      maybe_start_allocator();
    }
    return;
  }

  if (bid_agreement_.handle(msg)) {
    if (bid_agreement_.done() && !agreed_bids_ && !outcome_) {
      const auto& r = *bid_agreement_.result();
      if (r.is_bottom()) {
        local_abort(r.bottom());
      } else {
        agreed_bids_ = r.value();
        maybe_start_allocator();
      }
    }
    return;
  }

  if (allocator_.handle(msg)) {
    if (allocator_.done()) finish_from_allocator();
    return;
  }

  DAUCT_DEBUG("provider " << endpoint_.self() << ": unroutable topic '" << msg.topic
                          << "'");
}

}  // namespace dauct::core
