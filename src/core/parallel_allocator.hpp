// Parallel Allocator (paper §4.2, Fig. 3; Property 2).
//
// Executes the allocation algorithm A, decomposed into a task graph, at one
// provider. The block chain is:
//
//   Input Validation (all providers hold the same input bytes)
//     → Common Coin (one flip providing the shared randomness seed)
//       → task execution (each task computed by its ≥ k+1 executors;
//         results shipped to consumers with Data Transfer, which aborts on
//         any divergence between the redundant copies)
//         → Output Agreement (digests of the final result cross-validated).
//
// Any block ⊥ collapses the allocator to ⊥. Property 2 is established by
// the per-block properties exactly as in the paper's Theorem 2.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "blocks/block.hpp"
#include "blocks/common_coin.hpp"
#include "blocks/data_transfer.hpp"
#include "blocks/input_validation.hpp"
#include "blocks/output_agreement.hpp"
#include "core/task_graph.hpp"

namespace dauct::core {

class ParallelAllocator {
 public:
  /// `graph` must have been validated for (m, k). `decode_input` turns the
  /// validated input bytes into the AuctionInstance the task context exposes;
  /// it returns false on malformed input (→ ⊥, an honest provider never
  /// feeds malformed bytes to its own allocator). A non-null `compute_lock`
  /// is held around every TaskSpec::compute call (non-reentrant adapters,
  /// AuctionAdapter::reentrant_compute()).
  ParallelAllocator(blocks::Endpoint& endpoint, std::string topic_prefix,
                    TaskGraph graph, std::size_t k,
                    std::mutex* compute_lock = nullptr);

  /// Start with this provider's input bytes (the agreed bids + asks).
  void start(Bytes input);

  bool handle(const net::Message& msg);

  bool done() const { return result_.has_value(); }
  /// The final task's result bytes, or ⊥.
  const std::optional<Outcome<Bytes>>& result() const { return result_; }

  /// The coin value used (valid once past the coin phase; tests/metrics).
  std::uint64_t shared_seed() const { return context_.shared_seed; }

 private:
  struct TaskState {
    std::optional<Bytes> local_result;
    bool computed = false;
    bool transfer_started = false;
    std::unique_ptr<blocks::DataTransfer> transfer;
  };

  void on_input_validated(Bytes input);
  void on_coin(std::uint64_t seed);
  void progress();
  void abort(const Bottom& bottom);

  blocks::Endpoint& endpoint_;
  std::string prefix_;
  TaskGraph graph_;
  std::size_t k_;
  std::mutex* compute_lock_;

  blocks::InputValidation input_validation_;
  blocks::CommonCoin coin_;
  blocks::OutputAgreement output_agreement_;

  auction::AuctionInstance instance_;
  TaskContext context_;
  std::vector<TaskState> states_;
  bool tasks_running_ = false;
  bool output_started_ = false;
  std::optional<Outcome<Bytes>> result_;
};

}  // namespace dauct::core
