// Flat binary state serialization for warm-state checkpoints.
//
// StateWriter appends trivially-copyable values and sized vectors to one
// contiguous byte buffer; StateReader walks the same sequence back.  The
// format carries no per-field tags: writer and reader must execute the
// SAME field sequence, which every save_state/load_state pair in this
// repo guarantees by construction (each is the mirror image of the
// other, in one file).  Integrity against torn or stale files is NOT
// this layer's job — the warm-state bank (sim/warm_state.hpp) guards
// whole blobs with a fingerprinted header and an exact payload size, so
// a reader only ever sees bytes produced by the matching writer
// sequence.  Reads past the end are programming errors and fail the
// SNUG_ENSURE invariants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/require.hpp"

namespace snug {

class StateWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void bytes(const std::byte* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed (u64) element run.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    bytes(reinterpret_cast<const std::byte*>(v.data()),
          v.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<std::byte>& data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
};

class StateReader {
 public:
  StateReader(const std::byte* data, std::size_t size) noexcept
      : p_(data), end_(data + size) {}
  explicit StateReader(const std::vector<std::byte>& buf) noexcept
      : StateReader(buf.data(), buf.size()) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    ++field_;
    check_room(sizeof(T), "pod");
    T v;
    std::memcpy(&v, p_, sizeof(T));
    p_ += sizeof(T);
    return v;
  }

  void bytes(std::byte* out, std::size_t n) {
    ++field_;
    check_room(n, "byte run");
    if (n == 0) return;  // `out` may be null: memcpy requires non-null
    std::memcpy(out, p_, n);
    p_ += n;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    ++field_;
    check_room(sizeof(std::uint64_t), "vector length prefix");
    std::uint64_t count;
    std::memcpy(&count, p_, sizeof(count));
    p_ += sizeof(count);
    // Division, not multiplication: a hostile/garbled length prefix must
    // not overflow count * sizeof(T) into a small number.
    SNUG_ENSURE_MSG(
        count <= remaining() / sizeof(T),
        "state decode: field #%zu — vector of %llu %zu-byte element(s) "
        "overruns the buffer (%zu byte(s) left); truncated data, an "
        "oversize length prefix, or a writer/reader element-type "
        "mismatch",
        field_, static_cast<unsigned long long>(count), sizeof(T),
        remaining());
    std::vector<T> v(static_cast<std::size_t>(count));
    if (v.empty()) return v;  // data() is null: memcpy requires non-null
    std::memcpy(v.data(), p_, v.size() * sizeof(T));
    p_ += v.size() * sizeof(T);
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

  /// Fields decoded so far (each pod()/bytes()/vec() call is one field).
  [[nodiscard]] std::size_t fields_read() const noexcept { return field_; }

 private:
  /// The decode invariant, with the failing field's sequence position:
  /// writer and reader execute the same field sequence by construction,
  /// so an overrun means the blob was not produced by this reader's
  /// mirror writer — the position says exactly where they diverged.
  void check_room(std::size_t need, const char* what) const {
    SNUG_ENSURE_MSG(remaining() >= need,
                    "state decode: field #%zu — %s of %zu byte(s) "
                    "overruns the buffer (%zu byte(s) left); the "
                    "writer/reader field sequences diverged here",
                    field_, what, need, remaining());
  }

  const std::byte* p_;
  const std::byte* end_;
  std::size_t field_ = 0;  ///< 1-based position of the field being read
};

}  // namespace snug
