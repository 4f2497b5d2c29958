// The one byte codec: little-endian fixed-width fields, FNV-1a, and the
// strict reader every binary format in the repo decodes through.
//
// This header is the only code that knows the byte layout.  NCWIRE01
// frames, NCSTAT01 snapshots, NCCKPT01 checkpoints, NCBLOB01 artifact
// blobs, the campaign chunk blobs, the serve job payloads and the
// cached-result codecs (cache/codec.hpp) are all written with
// ByteWriter and read back with ByteReader.  It is a header-only leaf
// below obs: it depends on nothing in nanocost.
//
// Conventions:
//  - integers little-endian fixed-width; i32 travels widened to 8 bytes
//    and a u32 carried in a u64 field is read with wide_u32();
//  - f64 by IEEE bit pattern, so decode(encode(x)) is bitwise;
//  - byte strings and strings as a u64 length followed by the bytes;
//  - a sealed section is `u64 length, bytes, u64 fnv1a(seed, bytes)`
//    (NCWIRE01 payloads, NCBLOB01 payloads, NCCKPT01 records), and an
//    envelope is `magic, body, u64 fnv1a(seed, body)` (NCSTAT01).
//
// Reading is strict: every read checks the bytes remaining first, every
// declared length is checked against them before anything is
// allocated, narrowing reads reject out-of-range values, booleans
// reject any byte but 0 and 1, and expect_end() rejects trailing bytes.
// Each failure throws the reader's error type -- a template parameter,
// so every format keeps its own taxonomy -- with a message that starts
// with the reader's context (the format and, for files, the path) and
// names the offense.
//
// A record's layout is written once, as `template <class IO, RecordOf<T>
// R> void fields(IO&, R&)` calling io.f64(name, v), io.i32, i64, u64,
// boolean, wide_u32, str, bytes, u8 (an enum, range-checked on read) and
// seq (a counted vector) in wire order.  ByteWriter encodes the list,
// ByteReader decodes it strictly and names the field in its diagnostics,
// and cache::KeyBuilder hashes it into a canonical key.  The positional
// calls (w.u64(v), r.u64()) remain for envelopes and headers.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nanocost::bytes {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

namespace detail {

template <class It>
constexpr std::uint64_t fnv1a_range(It first, It last, std::uint64_t h) noexcept {
  for (; first != last; ++first) {
    h ^= static_cast<std::uint8_t>(*first);
    h *= kFnvPrime;
  }
  return h;
}

/// An 8-byte format magic ("NCWIRE01", ...) as bytes.
inline std::span<const std::uint8_t, 8> magic_bytes(const char (&m)[8]) noexcept {
  return std::span<const std::uint8_t, 8>(reinterpret_cast<const std::uint8_t*>(m), 8);
}

}  // namespace detail

/// `R` is the record `T`, const (writers and keys) or not (the reader):
/// the constraint that gives each record its own fields() overload.
template <class R, class T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/// The double an f64 field carries: the value itself, or a unit
/// wrapper's value().
template <class T>
[[nodiscard]] constexpr double f64_of(const T& v) noexcept {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<double>(v);
  } else {
    return v.value();
  }
}

/// FNV-1a over `data`, continuing from `seed`.  The default seed (the
/// offset basis) starts a fresh hash, and hashing is incremental:
/// fnv1a(b, fnv1a(a)) == fnv1a(a || b).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::span<const std::uint8_t> data,
                                            std::uint64_t seed = kFnvOffset) noexcept {
  return detail::fnv1a_range(data.begin(), data.end(), seed);
}

/// FNV-1a over the characters of `s`; constexpr, so names (fault sites,
/// cache key tags) hash at compile time.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s,
                                            std::uint64_t seed = kFnvOffset) noexcept {
  return detail::fnv1a_range(s.begin(), s.end(), seed);
}

/// The low `N` bytes of `v`, least significant first.
template <std::size_t N = 8>
[[nodiscard]] constexpr std::array<std::uint8_t, N> to_le(std::uint64_t v) noexcept {
  static_assert(N <= 8);
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

/// Inverse of to_le(): `n` (<= 8) little-endian bytes as an integer.
[[nodiscard]] constexpr std::uint64_t from_le(const std::uint8_t* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Appends little-endian fields to a growing byte vector.
class ByteWriter final {
 public:
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void boolean(bool v) { out_.push_back(v ? 1 : 0); }
  void u32(std::uint32_t v) { raw(to_le<4>(v)); }
  void u64(std::uint64_t v) { raw(to_le<8>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Widened to 8 bytes; ByteReader::i32() range-checks it back.
  void i32(std::int32_t v) { i64(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void magic(const char (&m)[8]) { raw(detail::magic_bytes(m)); }
  /// The bytes alone, no length.
  void raw(std::span<const std::uint8_t> v) { out_.insert(out_.end(), v.begin(), v.end()); }
  /// u64 length followed by the raw bytes.
  void bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    raw(v);
  }
  /// u64 length followed by the raw characters.
  void str(std::string_view v) {
    u64(v.size());
    out_.insert(out_.end(), v.begin(), v.end());
  }
  /// A sealed section: u64 length, the bytes, u64 fnv1a(seed, bytes).
  void sealed(std::span<const std::uint8_t> v, std::uint64_t seed = kFnvOffset) {
    bytes(v);
    u64(fnv1a(v, seed));
  }
  /// Closes an envelope: appends fnv1a over everything written from
  /// offset `from` on (the body after the magic).
  void seal(std::size_t from) { u64(fnv1a(view().subspan(from))); }

  // Field calls (see the header comment); the name is not written.
  template <class T> void f64(const char*, const T& v) { f64(f64_of(v)); }
  void i32(const char*, std::int32_t v) { i32(v); }
  void i64(const char*, std::int64_t v) { i64(v); }
  void u64(const char*, std::uint64_t v) { u64(v); }
  void wide_u32(const char*, std::uint32_t v) { u64(v); }
  void boolean(const char*, bool v) { boolean(v); }
  void str(const char*, std::string_view v) { str(v); }
  void bytes(const char*, std::span<const std::uint8_t> v) { bytes(v); }
  template <class E> void u8(const char*, E v, E) { u8(static_cast<std::uint8_t>(v)); }
  template <class V, class Each>
  void seq(const char*, const V& v, std::size_t /*min_elem_bytes*/, Each&& each) {
    u64(v.size());
    for (const auto& e : v) each(e);
  }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  /// The bytes written so far.
  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept { return out_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Strict cursor over a byte span (see the header comment).  `Err` is
/// the exception type every failure throws; it must be constructible
/// from a std::string.  The span is borrowed: it must outlive the
/// reader, and so must the context string.
template <class Err = std::runtime_error>
class ByteReader final {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data,
                      std::string_view context = "blob") noexcept
      : data_(data), context_(context) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Replaces the diagnostic prefix (e.g. to name the record being
  /// parsed); the string must outlive the reader's use of it.
  void set_context(std::string_view context) noexcept { context_ = context; }

  [[nodiscard]] std::uint8_t u8(const char* what = "u8") {
    need(1, what);
    return data_[pos_++];
  }
  [[nodiscard]] bool boolean(const char* what = "bool") {
    const std::uint8_t v = u8(what);
    if (v > 1) fail(std::string(what) + " is " + std::to_string(v) + ", not a 0/1 boolean");
    return v == 1;
  }
  [[nodiscard]] std::uint32_t u32(const char* what = "u32") {
    return static_cast<std::uint32_t>(fixed(4, what));
  }
  [[nodiscard]] std::uint64_t u64(const char* what = "u64") { return fixed(8, what); }
  [[nodiscard]] std::int64_t i64(const char* what = "i64") {
    return static_cast<std::int64_t>(u64(what));
  }
  /// Counterpart of ByteWriter::i32(): rejects values outside int32.
  [[nodiscard]] std::int32_t i32(const char* what = "i32") {
    const std::int64_t v = i64(what);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
      fail(std::string(what) + " " + std::to_string(v) + " is out of int32 range");
    }
    return static_cast<std::int32_t>(v);
  }
  /// A u32 value carried in a u64 field: rejects values above UINT32_MAX.
  [[nodiscard]] std::uint32_t wide_u32(const char* what = "u32") {
    const std::uint64_t v = u64(what);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail(std::string(what) + " " + std::to_string(v) + " is out of uint32 range");
    }
    return static_cast<std::uint32_t>(v);
  }
  [[nodiscard]] double f64(const char* what = "f64") { return std::bit_cast<double>(u64(what)); }

  /// The next `n` bytes, borrowed from the underlying span; `n` is
  /// checked against the bytes remaining before anything else.
  [[nodiscard]] std::span<const std::uint8_t> raw(std::uint64_t n, const char* what = "bytes") {
    need(n, what);
    const std::span<const std::uint8_t> out = data_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }
  /// Counterpart of ByteWriter::bytes().
  [[nodiscard]] std::vector<std::uint8_t> bytes(const char* what = "byte string") {
    const std::span<const std::uint8_t> s = raw(u64(what), what);
    return std::vector<std::uint8_t>(s.begin(), s.end());
  }
  /// Counterpart of ByteWriter::str(); `max_bytes` caps the length.
  [[nodiscard]] std::string str(
      const char* what = "string",
      std::uint64_t max_bytes = std::numeric_limits<std::uint64_t>::max()) {
    const std::uint64_t n = u64(what);
    if (n > max_bytes) {
      fail(std::string(what) + " declares " + std::to_string(n) + " bytes (cap " +
           std::to_string(max_bytes) + ")");
    }
    const std::span<const std::uint8_t> s = raw(n, what);
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }
  /// Counterpart of ByteWriter::sealed(): the section's bytes, after
  /// checking its length against the bytes remaining and its checksum.
  [[nodiscard]] std::span<const std::uint8_t> sealed(const char* what = "sealed section",
                                                      std::uint64_t seed = kFnvOffset) {
    const std::span<const std::uint8_t> s = raw(u64(what), what);
    if (u64(what) != fnv1a(s, seed)) {
      fail(std::string(what) + " failed its fnv1a checksum (bit flip?)");
    }
    return s;
  }

  /// A declared element count: rejects `n` elements of at least
  /// `min_elem_bytes` each that cannot fit in the bytes remaining, so a
  /// corrupt count throws instead of driving a giant allocation.
  [[nodiscard]] std::size_t count(std::uint64_t n, std::size_t min_elem_bytes,
                                  const char* what = "element count") {
    if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes) {
      fail(std::string(what) + " declares " + std::to_string(n) + ", more than the " +
           std::to_string(remaining()) + " remaining bytes can hold");
    }
    return static_cast<std::size_t>(n);
  }

  // Field calls (see the header comment): each reads into `v` and
  // names the field in its diagnostic.
  template <class T> void f64(const char* what, T& v) { v = T{f64(what)}; }
  void i32(const char* what, std::int32_t& v) { v = i32(what); }
  void i64(const char* what, std::int64_t& v) { v = i64(what); }
  void u64(const char* what, std::uint64_t& v) { v = u64(what); }
  void wide_u32(const char* what, std::uint32_t& v) { v = wide_u32(what); }
  void boolean(const char* what, bool& v) { v = boolean(what); }
  void str(const char* what, std::string& v) { v = str(what); }
  void bytes(const char* what, std::vector<std::uint8_t>& v) { v = bytes(what); }
  /// An enum byte: rejects codes above `max`.
  template <class E>
  void u8(const char* what, E& v, E max) {
    const std::uint8_t code = u8(what);
    if (code > static_cast<std::uint8_t>(max)) {
      fail(std::string(what) + " declares unknown code " + std::to_string(code));
    }
    v = static_cast<E>(code);
  }
  template <class V, class Each>
  void seq(const char* what, V& v, std::size_t min_elem_bytes, Each&& each) {
    v.resize(count(u64(what), min_elem_bytes, what));
    for (auto& e : v) each(e);
  }

  /// Checks an 8-byte magic; throws `E` (default: the reader's error).
  template <class E = Err>
  void magic(const char (&m)[8]) {
    if (remaining() < 8 ||
        !std::ranges::equal(data_.subspan(pos_, 8), detail::magic_bytes(m))) {
      throw E(std::string(context_) + " has a bad magic header");
    }
    pos_ += 8;
  }
  /// Reads a u32 format version and rejects any but `expected`.
  void version(std::uint32_t expected) {
    const std::uint32_t v = u32("version");
    if (v != expected) {
      fail("declares unsupported version " + std::to_string(v) + " (this decoder speaks " +
           std::to_string(expected) + ")");
    }
  }

  /// Throws unless every byte was consumed.
  void expect_end() const {
    if (pos_ != data_.size()) {
      fail("has " + std::to_string(data_.size() - pos_) + " trailing bytes");
    }
  }

  /// Throws Err("<context> <why>").
  [[noreturn]] void fail(const std::string& why) const {
    throw Err(std::string(context_) + " " + why);
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (remaining() < n) {
      fail("truncated reading " + std::string(what) + " (" + std::to_string(remaining()) +
           " of " + std::to_string(n) + " bytes left)");
    }
  }
  std::uint64_t fixed(std::size_t n, const char* what) {
    need(n, what);
    const std::uint64_t v = from_le(data_.data() + pos_, n);
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

/// Opens an envelope -- `magic, body, u64 fnv1a(body)` -- after checking
/// the magic and the trailing checksum, and returns a reader over the
/// body alone, so its expect_end() rejects bytes the body did not
/// consume.
template <class Err>
[[nodiscard]] ByteReader<Err> open_envelope(std::span<const std::uint8_t> blob,
                                            const char (&magic)[8], std::string_view context) {
  ByteReader<Err> head(blob, context);
  head.magic(magic);
  if (blob.size() < 8 + 8) head.fail("truncated: no room for a body and a checksum");
  const std::span<const std::uint8_t> body = blob.subspan(8, blob.size() - 16);
  if (from_le(blob.data() + blob.size() - 8, 8) != fnv1a(body)) {
    head.fail("failed its fnv1a checksum (bit flip?)");
  }
  return ByteReader<Err>(body, context);
}

}  // namespace nanocost::bytes
