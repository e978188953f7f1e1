#include "util/bytes.h"

namespace ngp {

ByteBuffer ByteBuffer::from_string(std::string_view s) {
  ByteBuffer b;
  b.data_.assign(reinterpret_cast<const std::uint8_t*>(s.data()),
                 reinterpret_cast<const std::uint8_t*>(s.data()) + s.size());
  return b;
}

WireWriter::WireWriter(ByteBuffer& out, std::size_t size)
    : out_(out), pos_(out.size()) {
  if (size != 0) out_.resize(pos_ + size);
}

void WireWriter::extend(std::size_t n) { out_.resize(pos_ + n); }

ConstBytes ByteBuffer::subspan(std::size_t offset, std::size_t len) const {
  if (offset >= data_.size()) return {};
  len = std::min(len, data_.size() - offset);
  return {data_.data() + offset, len};
}

std::string to_hex(ConstBytes bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

ByteBuffer from_hex(std::string_view hex) {
  ByteBuffer out;
  if (hex.size() % 2 != 0) return out;
  out.resize(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    int hi = hex_value(hex[2 * i]);
    int lo = hex_value(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      out.clear();
      return out;
    }
    out[i] = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return out;
}

}  // namespace ngp
