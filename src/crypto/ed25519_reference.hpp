// Reference ed25519: the original TweetNaCl-style implementation (radix-2^16
// field, constant-time conditional-swap ladder for secret scalars, 4-bit
// windows for verification), retained verbatim as ground truth.
//
// The production code in ed25519.{hpp,cpp} must produce byte-identical keys
// and signatures, give the same verify/verify_batch verdicts, and consume
// the same Rng stream — that contract is enforced by
// tests/ed25519_equivalence_test.cpp and lets the perf suite
// (bench/perf_suite.cpp) report honest speedups against the code the signing
// layer shipped with. Only tests and benches call this; it is deliberately
// slow, do not "fix" it: change ed25519.cpp and prove equivalence instead.
#pragma once

#include <span>

#include "crypto/ed25519.hpp"

namespace dauct::crypto::ed25519_ref {

ed25519::KeyPair keypair_from_seed(const ed25519::Seed& seed);

ed25519::Signature sign(const ed25519::KeyPair& kp, BytesView message);

bool verify(const ed25519::PublicKey& pk, BytesView message,
            const ed25519::Signature& sig);

bool verify_batch(std::span<const ed25519::BatchItem> items, Rng& rng);

}  // namespace dauct::crypto::ed25519_ref
