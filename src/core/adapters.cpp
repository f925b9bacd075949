#include "core/adapters.hpp"

#include <numeric>

#include "auction/double_auction.hpp"
#include "serde/auction_codec.hpp"

namespace dauct::core {

namespace {

std::vector<NodeId> all_providers(std::size_t m) {
  std::vector<NodeId> v(m);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Double auction: one task, no parallelism, no data transfer.
// ---------------------------------------------------------------------------

TaskGraph DoubleAuctionAdapter::build(std::size_t /*num_bidders*/, std::size_t m,
                                      std::size_t /*k*/) const {
  TaskGraph g;
  TaskSpec run;
  run.id = 0;
  run.name = "double-auction/run";
  run.executors = all_providers(m);
  run.compute = [](const std::vector<Bytes>&, const TaskContext& ctx) {
    return serde::encode_result(auction::run_double_auction(*ctx.instance));
  };
  g.add_task(std::move(run));
  return g;
}

auction::AuctionResult DoubleAuctionAdapter::run_centralized(
    const auction::AuctionInstance& instance, std::uint64_t /*seed*/) const {
  return auction::run_double_auction(instance);
}

// ---------------------------------------------------------------------------
// Standard auction: Algorithm 1's three-step task graph.
// ---------------------------------------------------------------------------

StandardAuctionAdapter::StandardAuctionAdapter(auction::StandardAuctionParams params,
                                               std::size_t groups)
    : params_(params), groups_(groups) {}

TaskGraph StandardAuctionAdapter::build(std::size_t num_bidders, std::size_t m,
                                        std::size_t k) const {
  const std::size_t c = groups_ == 0 ? max_parallelism(m, k) : groups_;
  const auto groups = assign_groups(m, k, c);
  const auto params = params_;  // copied into compute closures
  const std::size_t n = num_bidders;

  TaskGraph g;

  // Task 1: the allocation (hard to parallelise → all providers run it).
  TaskSpec t1;
  t1.id = 0;
  t1.name = "standard/allocate";
  t1.executors = all_providers(m);
  t1.compute = [params](const std::vector<Bytes>&, const TaskContext& ctx) {
    auto p = params;
    p.seed = ctx.shared_seed;
    return serde::encode_assignment(auction::standard_allocate(*ctx.instance, p));
  };
  g.add_task(std::move(t1));

  // Tasks 2.g: the payment chunks, one per provider group. Group g computes
  // the Clarke payments of users {i : i ≡ g (mod c)} — a *strided* split, so
  // the expensive users (winners, whose payments need a welfare re-solve)
  // spread evenly over the groups and the parallel makespan tracks the mean
  // group load instead of the worst contiguous cluster.
  for (std::size_t gi = 0; gi < c; ++gi) {
    TaskSpec t2;
    t2.id = static_cast<TaskId>(1 + gi);
    t2.name = "standard/payments/" + std::to_string(gi);
    t2.deps = {0};
    t2.executors = groups[gi];
    t2.compute = [params, gi, c, n](const std::vector<Bytes>& deps,
                                    const TaskContext& ctx) -> Bytes {
      auto assignment = serde::decode_assignment(BytesView(deps[0]));
      if (!assignment) return {};  // diverging bytes → caught by transfer/output
      auto p = params;
      p.seed = ctx.shared_seed;
      std::vector<BidderId> chunk;
      for (std::size_t i = gi; i < n; i += c) chunk.push_back(static_cast<BidderId>(i));
      return serde::encode_money_vector(
          auction::standard_payments(*ctx.instance, p, *assignment, chunk));
    };
    g.add_task(std::move(t2));
  }

  // Task 3: gather everything and emit (x, p⃗).
  TaskSpec t3;
  t3.id = static_cast<TaskId>(1 + c);
  t3.name = "standard/assemble";
  t3.deps.resize(1 + c);
  std::iota(t3.deps.begin(), t3.deps.end(), 0);
  t3.executors = all_providers(m);
  t3.compute = [c, n](const std::vector<Bytes>& deps,
                      const TaskContext& ctx) -> Bytes {
    auto assignment = serde::decode_assignment(BytesView(deps[0]));
    if (!assignment) return {};
    std::vector<Money> payments(n, kZeroMoney);
    for (std::size_t gi = 0; gi < c; ++gi) {
      auto chunk = serde::decode_money_vector(BytesView(deps[1 + gi]));
      if (!chunk) return {};
      for (std::size_t j = 0; j < chunk->size(); ++j) {
        const std::size_t i = gi + j * c;  // strided split (see Task 2.g)
        if (i < n) payments[i] = (*chunk)[j];
      }
    }
    return serde::encode_result(
        auction::standard_assemble(*ctx.instance, *assignment, payments));
  };
  g.add_task(std::move(t3));
  return g;
}

auction::AuctionResult StandardAuctionAdapter::run_centralized(
    const auction::AuctionInstance& instance, std::uint64_t seed) const {
  auto p = params_;
  p.seed = seed;
  return auction::run_standard_auction(instance, p);
}

}  // namespace dauct::core
