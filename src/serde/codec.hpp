// Binary serialization: Writer/Reader over byte buffers.
//
// All protocol payloads are encoded with this codec. The encoding is
// deterministic and platform-independent (little-endian fixed ints, LEB128
// varints), which matters because providers cross-validate each other's
// payloads by hash equality. Money goes on the wire as the zigzag LEB128
// varint of its micro-units and ids as plain varints (the Protocol Buffers
// sint64/uint32 forms): a price of ~10^6 micro-units takes 3 bytes, an id
// below 128 one.
//
// Reader is *defensive*: every accessor reports failure on truncated or
// malformed input instead of crashing — payloads arrive from untrusted peers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/money.hpp"

namespace dauct::serde {

/// Encoded size of a LEB128 varint (1 byte per started 7 bits). Lets encoders
/// compute exact payload sizes up front and write nested sections in place
/// instead of encode-into-temporary-then-copy.
constexpr std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends values to a byte buffer.
class Writer {
 public:
  Writer() = default;
  /// Pre-size the buffer: one allocation when the encoded size is known (or
  /// over-estimated) up front.
  explicit Writer(std::size_t reserve_hint) { buf_.reserve(reserve_hint); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void varint(std::uint64_t v);  ///< LEB128
  void svarint(std::int64_t v);  ///< zigzag LEB128
  void id(std::uint32_t v) { varint(v); }  ///< a NodeId or BidderId
  void boolean(bool v);
  void money(dauct::Money v);    ///< svarint of the micro-units
  void bytes(BytesView v);    ///< varint length prefix + raw bytes
  void raw(BytesView v);      ///< raw bytes, no length prefix
  void str(std::string_view v);

  /// A varint length-prefixed section whose body `fill(*this)` writes in
  /// place: the prefix is slotted in front of the body once its size is
  /// known, so nested sections need no size pass and no temporary buffer.
  template <class Fill>
  void section(Fill&& fill) {
    const std::size_t start = buf_.size();
    fill(*this);
    insert_varint(start, buf_.size() - start);
  }

  /// Grow capacity to at least `n` bytes (never shrinks).
  void reserve(std::size_t n) { buf_.reserve(n); }
  /// Reusable-buffer mode: drop the contents, keep the capacity. A Writer
  /// held across encodes amortizes its allocations to zero.
  void clear() { buf_.clear(); }
  std::size_t size() const { return buf_.size(); }

  const Bytes& buffer() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  void insert_varint(std::size_t pos, std::uint64_t v);

  Bytes buf_;
};

/// Reads values from a byte buffer. On any malformed access, ok() turns false
/// and all further reads return zero values; callers check ok() once at the
/// end of decoding a message.
///
/// The *_view accessors are zero-copy: they return spans/views into the
/// underlying buffer instead of owning copies, with exactly the same
/// defensive behaviour (same ok() transitions, same rejected inputs) as the
/// owning accessors — enforced by the serde parity tests. Views are only
/// valid while the buffer passed to the constructor outlives them.
class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  std::uint64_t varint();
  std::int64_t svarint();
  std::uint32_t id();  ///< a varint; one above UINT32_MAX fails the read
  bool boolean();
  dauct::Money money();
  Bytes bytes();
  Bytes raw(std::size_t len);
  std::string str();

  /// Zero-copy variants: same wire format and failure behaviour as bytes() /
  /// raw() / str(), but returning views into the input buffer (empty on
  /// failure).
  BytesView bytes_view();
  BytesView raw_view(std::size_t len);
  std::string_view str_view();

  /// True while no decode error has occurred.
  bool ok() const { return ok_; }
  /// True when the whole buffer has been consumed (and no error occurred).
  bool at_end() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool need(std::size_t n);

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dauct::serde
