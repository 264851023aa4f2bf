#include "common/temp_name.hpp"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <cstdint>

#include "common/str.hpp"

namespace snug {
namespace {

std::atomic<std::uint64_t> g_temp_seq{0};

/// Reads all of `s` as one decimal number.
template <typename T>
bool parse_decimal(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, out);
  return !s.empty() && r.ec == std::errc() && r.ptr == end;
}

}  // namespace

std::string temp_name(const std::string& target) {
  return strf("%s.tmp.%ld.%llu", target.c_str(),
              static_cast<long>(::getpid()),
              static_cast<unsigned long long>(
                  g_temp_seq.fetch_add(1, std::memory_order_relaxed)));
}

bool split_temp_name(std::string_view path, std::string_view& stem,
                     long& pid) {
  const std::size_t seq_dot = path.rfind('.');
  if (seq_dot == std::string_view::npos || seq_dot == 0) return false;
  const std::size_t pid_dot = path.rfind('.', seq_dot - 1);
  if (pid_dot == std::string_view::npos) return false;
  std::uint64_t seq = 0;
  long parsed = 0;
  const std::string_view head = path.substr(0, pid_dot);
  if (!head.ends_with(".tmp") ||
      !parse_decimal(path.substr(pid_dot + 1, seq_dot - pid_dot - 1),
                     parsed) ||
      !parse_decimal(path.substr(seq_dot + 1), seq)) {
    return false;
  }
  stem = head;
  pid = parsed;
  return true;
}

}  // namespace snug
