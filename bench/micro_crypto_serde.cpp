// Ablation D: crypto & serde microbenchmarks (vendored tinybench harness —
// no external benchmark library needed).
//
// The framework's per-message costs: SHA-256 (digest echoes, commitments,
// validation), HMAC tag derivation, commitment create/verify, bid codec and
// frame round trips, and the PRNG.
#include "tinybench.hpp"

#include "auction/double_auction.hpp"
#include "auction/workload.hpp"
#include "crypto/commitment.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/message.hpp"
#include "runtime/submission_codec.hpp"
#include "serde/bitstream.hpp"

namespace {

using namespace dauct;
using tinybench::DoNotOptimize;
using tinybench::State;

void BM_Sha256(State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    DoNotOptimize(crypto::sha256(BytesView(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
TINYBENCH(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacTagDerivation(State& state) {
  for (auto _ : state) {
    DoNotOptimize(crypto::derive_tag({"dauct/common-coin", "alloc/coin"}));
  }
}
TINYBENCH(BM_HmacTagDerivation);

void BM_CommitAndVerify(State& state) {
  crypto::Rng rng(1);
  const crypto::Digest tag = crypto::derive_tag({"bench"});
  for (auto _ : state) {
    auto [c, o] = crypto::commit(tag, rng.next_u64(), rng);
    DoNotOptimize(crypto::verify(tag, c, o));
  }
}
TINYBENCH(BM_CommitAndVerify);

void BM_RngU64(State& state) {
  crypto::Rng rng(7);
  for (auto _ : state) DoNotOptimize(rng.next_u64());
}
TINYBENCH(BM_RngU64);

void BM_SubmissionCodec(State& state) {
  crypto::Rng rng(3);
  const auto inst = auction::generate(
      auction::double_auction_workload(static_cast<std::size_t>(state.range(0)), 8),
      rng);
  const std::vector<std::optional<auction::Bid>> subs(inst.bids.begin(),
                                                      inst.bids.end());
  for (auto _ : state) {
    const Bytes enc = runtime::detail::encode_submissions(subs);
    DoNotOptimize(runtime::detail::decode_submissions(BytesView(enc)));
  }
}
TINYBENCH(BM_SubmissionCodec)->Arg(100)->Arg(1000);

void BM_BitstreamRoundTrip(State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xc3);
  for (auto _ : state) {
    DoNotOptimize(serde::from_bits(serde::to_bits(BytesView(data))));
  }
}
TINYBENCH(BM_BitstreamRoundTrip)->Arg(20)->Arg(2000);

void BM_FrameRoundTrip(State& state) {
  net::Message msg{1, 2, "alloc/dt/3/val",
                   Bytes(static_cast<std::size_t>(state.range(0)), 0x11)};
  for (auto _ : state) {
    const Bytes frame = net::encode_frame(msg);
    DoNotOptimize(net::decode_frame(BytesView(frame)));
  }
}
TINYBENCH(BM_FrameRoundTrip)->Arg(64)->Arg(4096);

void BM_DoubleAuctionAlgorithm(State& state) {
  crypto::Rng rng(5);
  const auto inst = auction::generate(
      auction::double_auction_workload(static_cast<std::size_t>(state.range(0)), 8),
      rng);
  for (auto _ : state) {
    DoNotOptimize(auction::run_double_auction(inst));
  }
}
TINYBENCH(BM_DoubleAuctionAlgorithm)->Arg(100)->Arg(1000);

}  // namespace

TINYBENCH_MAIN
