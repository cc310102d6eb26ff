#ifndef IPIN_SKETCH_TIME_CODEC_H_
#define IPIN_SKETCH_TIME_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "ipin/graph/types.h"

// The one encoding of stored sketch times (DESIGN.md §12). A build
// sketch's entry pools and a build checkpoint store each entry's time as an
// unsigned offset from one base time: u32 offsets when every time lies
// within 2^32 - 1 of the earliest one, u64 offsets otherwise. Offsets
// order exactly as the times do, so invariant checks compare them as they
// are, and decoding is exact.

namespace ipin {

/// How a set of stored times is encoded: offsets of `width` bytes (4 or 8)
/// from `base`. A wide encoding's base is INT64_MIN, so a u64 offset is the
/// time with its sign bit flipped. In a valid encoding every offset of the
/// width decodes to an i64 without overflow.
struct TimeEncoding {
  int64_t base = std::numeric_limits<int64_t>::min();
  uint8_t width = 8;

  /// The narrowest encoding of the times in [first, last]; first > last
  /// stands for no times at all. A u32 encoding's base is `first`, or the
  /// largest valid base when `first` lies above it (within 2^32 - 1 of
  /// INT64_MAX), so the result is always valid.
  static TimeEncoding Covering(Timestamp first, Timestamp last) {
    constexpr uint32_t kTop = std::numeric_limits<uint32_t>::max();
    constexpr int64_t kHighestBase = std::numeric_limits<int64_t>::max() - kTop;
    if (first > last) return {0, 4};
    if (static_cast<uint64_t>(last) - static_cast<uint64_t>(first) <= kTop) {
      return {first < kHighestBase ? first : kHighestBase, 4};
    }
    return {};
  }

  /// The checks a header read from a file must pass.
  bool valid() const {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    if (width == 4) {
      return base <= kMax - int64_t{std::numeric_limits<uint32_t>::max()};
    }
    return width == 8 && base == TimeEncoding{}.base;
  }

  /// True if `t` has an offset of this width.
  bool Holds(Timestamp t) const {
    if (width == 8) return true;
    return t >= base && static_cast<uint64_t>(t) - static_cast<uint64_t>(base) <=
                            std::numeric_limits<uint32_t>::max();
  }

  /// The time stored as offset i of `bytes`.
  Timestamp Decode(const uint8_t* bytes, size_t i) const;

  bool operator==(const TimeEncoding&) const = default;
};

/// The codec for offsets of type Offset (uint32_t or uint64_t): encodes a
/// time the encoding holds, decodes any offset of a valid encoding, and
/// reads and writes offsets in host byte order (little-endian, like every
/// other field of the files) at any alignment.
template <typename Offset>
struct TimeCodec {
  static Offset Encode(int64_t base, Timestamp t) {
    return static_cast<Offset>(static_cast<uint64_t>(t) -
                               static_cast<uint64_t>(base));
  }
  static Timestamp Decode(int64_t base, Offset offset) {
    return static_cast<Timestamp>(static_cast<uint64_t>(base) + offset);
  }
  static Offset Load(const uint8_t* bytes, size_t i) {
    Offset offset = 0;
    std::memcpy(&offset, bytes + i * sizeof(Offset), sizeof(Offset));
    return offset;
  }
  static void Store(uint8_t* bytes, size_t i, Offset offset) {
    std::memcpy(bytes + i * sizeof(Offset), &offset, sizeof(Offset));
  }
};

/// Calls fn(TimeCodec<Offset>{}) with the offset type of `width` (4 or 8).
template <typename Fn>
void WithTimeCodec(size_t width, Fn&& fn) {
  if (width == 4) {
    fn(TimeCodec<uint32_t>{});
  } else {
    fn(TimeCodec<uint64_t>{});
  }
}

inline Timestamp TimeEncoding::Decode(const uint8_t* bytes, size_t i) const {
  Timestamp t = 0;
  WithTimeCodec(width, [&](auto codec) {
    t = codec.Decode(base, codec.Load(bytes, i));
  });
  return t;
}

}  // namespace ipin

#endif  // IPIN_SKETCH_TIME_CODEC_H_
