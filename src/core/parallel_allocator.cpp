#include "core/parallel_allocator.hpp"

#include <algorithm>

#include "serde/auction_codec.hpp"

namespace dauct::core {

namespace {
std::string task_prefix(const std::string& prefix, TaskId id) {
  return blocks::topic_join(prefix, "dt/" + std::to_string(id));
}
}  // namespace

ParallelAllocator::ParallelAllocator(blocks::Endpoint& endpoint,
                                     std::string topic_prefix, TaskGraph graph,
                                     std::size_t k, std::mutex* compute_lock)
    : endpoint_(endpoint),
      prefix_(std::move(topic_prefix)),
      graph_(std::move(graph)),
      k_(k),
      compute_lock_(compute_lock),
      input_validation_(endpoint_, blocks::topic_join(prefix_, "iv")),
      coin_(endpoint_, blocks::topic_join(prefix_, "coin")),
      output_agreement_(endpoint_, blocks::topic_join(prefix_, "out")) {
  states_.resize(graph_.size());
  // Transfer blocks exist from the start: their messages may arrive before
  // this provider has made local progress.
  for (TaskId t = 0; t < graph_.size(); ++t) {
    if (!graph_.needs_transfer(t)) continue;
    std::vector<NodeId> receivers = graph_.recipients(t);
    // Everyone in executors ∪ recipients participates; executors double as
    // receivers so the redundant copies are cross-checked everywhere.
    std::vector<NodeId> all_receivers = receivers;
    const auto& exec = graph_.task(t).executors;
    all_receivers.insert(all_receivers.end(), exec.begin(), exec.end());
    std::sort(all_receivers.begin(), all_receivers.end());
    all_receivers.erase(std::unique(all_receivers.begin(), all_receivers.end()),
                        all_receivers.end());
    states_[t].transfer = std::make_unique<blocks::DataTransfer>(
        endpoint_, task_prefix(prefix_, t), exec, all_receivers);
  }
}

void ParallelAllocator::start(Bytes input) {
  input_validation_.start(std::move(input));
  if (input_validation_.done()) {
    const auto& r = *input_validation_.result();
    if (r.is_bottom()) {
      abort(r.bottom());
    } else {
      on_input_validated(r.value());
    }
  }
}

void ParallelAllocator::abort(const Bottom& bottom) {
  if (!result_) result_ = Outcome<Bytes>(bottom);
}

void ParallelAllocator::on_input_validated(Bytes input) {
  auto instance = serde::decode_instance(BytesView(input));
  if (!instance) {
    abort(Bottom{AbortReason::kProtocolViolation, "undecodable allocator input"});
    return;
  }
  instance_ = std::move(*instance);
  context_.instance = &instance_;
  context_.m = endpoint_.num_providers();
  context_.k = k_;
  // One coin flip supplies the shared randomness tape for the whole run.
  coin_.start(blocks::DistributionSpec::seed64());
}

void ParallelAllocator::on_coin(std::uint64_t seed) {
  context_.shared_seed = seed;
  tasks_running_ = true;
  progress();
}

void ParallelAllocator::progress() {
  if (result_ || !tasks_running_) return;
  const NodeId self = endpoint_.self();

  bool advanced = true;
  while (advanced && !result_) {
    advanced = false;
    for (TaskId t = 0; t < graph_.size(); ++t) {
      TaskState& st = states_[t];
      const TaskSpec& spec = graph_.task(t);
      const bool is_executor =
          std::binary_search(spec.executors.begin(), spec.executors.end(), self);

      // Compute locally when all dependencies are satisfied.
      if (!st.computed && is_executor && !st.local_result) {
        bool ready = true;
        std::vector<Bytes> dep_results;
        dep_results.reserve(spec.deps.size());
        for (TaskId d : spec.deps) {
          if (!states_[d].local_result) {
            ready = false;
            break;
          }
          dep_results.push_back(*states_[d].local_result);
        }
        if (ready) {
          std::unique_lock<std::mutex> serialized;
          if (compute_lock_) serialized = std::unique_lock(*compute_lock_);
          st.local_result = spec.compute(dep_results, context_);
          st.computed = true;
          advanced = true;
        }
      }

      // Ship the result to consumers once computed.
      if (st.transfer && st.local_result && st.computed && !st.transfer_started &&
          st.transfer->is_source()) {
        st.transfer_started = true;
        st.transfer->start(*st.local_result);
        advanced = true;
      }
      // Pure receivers / bystanders arm their transfer immediately.
      if (st.transfer && !st.transfer_started && !st.transfer->is_source()) {
        st.transfer_started = true;
        st.transfer->start(std::nullopt);
        advanced = true;
      }
      // Adopt a completed transfer's value.
      if (st.transfer && st.transfer->done() && !st.local_result) {
        const auto& r = *st.transfer->result();
        if (r.is_bottom()) {
          abort(r.bottom());
          return;
        }
        if (st.transfer->is_receiver()) {
          st.local_result = r.value();
          advanced = true;
        }
      }
      // A completed transfer can also carry ⊥ for executors (mismatch).
      if (st.transfer && st.transfer->done() && st.transfer->result()->is_bottom()) {
        abort(st.transfer->result()->bottom());
        return;
      }
    }
  }

  // Final step: agree on the sink result.
  const TaskId sink = graph_.sink();
  if (!output_started_ && states_[sink].local_result) {
    output_started_ = true;
    output_agreement_.start(*states_[sink].local_result);
    if (output_agreement_.done()) {
      const auto& r = *output_agreement_.result();
      if (r.is_bottom()) {
        abort(r.bottom());
      } else {
        result_ = Outcome<Bytes>(r.value());
      }
    }
  }
}

bool ParallelAllocator::handle(const net::Message& msg) {
  if (!blocks::topic_has_prefix(msg.topic.str(), prefix_)) return false;

  if (input_validation_.handle(msg)) {
    if (input_validation_.done() && !tasks_running_ && !result_ &&
        context_.instance == nullptr) {
      const auto& r = *input_validation_.result();
      if (r.is_bottom()) {
        abort(r.bottom());
      } else {
        on_input_validated(r.value());
      }
    }
    return true;
  }

  if (coin_.handle(msg)) {
    if (coin_.done() && !tasks_running_ && !result_) {
      const auto& r = *coin_.result();
      if (r.is_bottom()) {
        abort(r.bottom());
      } else {
        on_coin(r.value().raw);
      }
    }
    return true;
  }

  for (TaskId t = 0; t < graph_.size(); ++t) {
    if (states_[t].transfer && states_[t].transfer->handle(msg)) {
      progress();
      return true;
    }
  }

  if (output_agreement_.handle(msg)) {
    if (output_agreement_.done() && !result_) {
      const auto& r = *output_agreement_.result();
      if (r.is_bottom()) {
        abort(r.bottom());
      } else if (output_started_) {
        result_ = Outcome<Bytes>(r.value());
      }
    }
    return true;
  }

  return false;
}

}  // namespace dauct::core
