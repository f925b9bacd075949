#include "serde/codec.hpp"

namespace dauct::serde {

namespace {
/// Zigzag map of a signed value onto the unsigned varint domain: 0, −1, 1,
/// −2, … → 0, 1, 2, 3, …, so small magnitudes of either sign stay short.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}
}  // namespace

void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::varint(std::uint64_t v) { insert_varint(buf_.size(), v); }

void Writer::insert_varint(std::size_t pos, std::uint64_t v) {
  std::uint8_t tmp[10];
  std::size_t n = 0;
  while (v >= 0x80) {
    tmp[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  tmp[n++] = static_cast<std::uint8_t>(v);
  buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(pos), tmp, tmp + n);
}

void Writer::svarint(std::int64_t v) { varint(zigzag(v)); }

void Writer::boolean(bool v) { u8(v ? 1 : 0); }

void Writer::money(dauct::Money v) { svarint(v.micros()); }

void Writer::bytes(BytesView v) {
  varint(v.size());
  raw(v);
}

void Writer::raw(BytesView v) { buf_.insert(buf_.end(), v.begin(), v.end()); }

void Writer::str(std::string_view v) {
  varint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

bool Reader::need(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!need(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!need(1)) return 0;
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0)) {
      ok_ = false;  // overflow
      return 0;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::int64_t Reader::svarint() { return unzigzag(varint()); }

std::uint32_t Reader::id() {
  const std::uint64_t v = varint();
  if (v > UINT32_MAX) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint32_t>(v);
}

bool Reader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) ok_ = false;
  return v == 1;
}

dauct::Money Reader::money() { return dauct::Money::from_micros(svarint()); }

Bytes Reader::bytes() {
  const BytesView v = bytes_view();
  return Bytes(v.begin(), v.end());
}

Bytes Reader::raw(std::size_t len) {
  const BytesView v = raw_view(len);
  return Bytes(v.begin(), v.end());
}

std::string Reader::str() {
  const std::string_view v = str_view();
  return std::string(v);
}

BytesView Reader::bytes_view() {
  const std::uint64_t len = varint();
  if (!ok_ || len > remaining()) {
    ok_ = false;
    return {};
  }
  return raw_view(static_cast<std::size_t>(len));
}

BytesView Reader::raw_view(std::size_t len) {
  if (!need(len)) return {};
  const BytesView out = data_.subspan(pos_, len);
  pos_ += len;
  return out;
}

std::string_view Reader::str_view() {
  const BytesView v = bytes_view();
  if (v.empty()) return {};
  return std::string_view(reinterpret_cast<const char*>(v.data()), v.size());
}

}  // namespace dauct::serde
