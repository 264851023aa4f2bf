#include "sim/service/wire.hpp"

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <climits>
#include <string_view>
#include <thread>
#include <vector>

#include "common/str.hpp"
#include "sim/blob_store.hpp"

namespace snug::sim::service {
namespace {

constexpr std::string_view kBatchQueryMagic = "query-v2";
constexpr std::string_view kBatchAnswerMagic = "answer-v2";

const char* status_name(AnswerStatus status) {
  switch (status) {
    case AnswerStatus::kOk: return "ok";
    case AnswerStatus::kError: return "error";
    case AnswerStatus::kRetryAfter: return "retry-after";
  }
  return "?";
}

bool status_from_name(std::string_view s, AnswerStatus& status) {
  for (const AnswerStatus st : {AnswerStatus::kOk, AnswerStatus::kError,
                                AnswerStatus::kRetryAfter}) {
    if (s == status_name(st)) {
      status = st;
      return true;
    }
  }
  return false;
}

/// Pops the next non-empty '\n'-separated line off `rest`, as a view
/// into the message — no per-line copies.
bool next_line(std::string_view& rest, std::string_view& line) {
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    if (!line.empty()) return true;
  }
  return false;
}

/// Splits "key=value"; false when the line has no '='.
bool split_kv(std::string_view line, std::string_view& key,
              std::string_view& value) {
  const std::size_t eq = line.find('=');
  if (eq == std::string_view::npos) return false;
  key = line.substr(0, eq);
  value = line.substr(eq + 1);
  return true;
}

/// Reads all of `s` as one unsigned decimal number.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, out);
  return r.ec == std::errc() && r.ptr == end;
}

/// Reads "<decimal index><sep>" off the front of `s`.
bool take_index(std::string_view& s, char sep, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, out);
  if (r.ec != std::errc() || r.ptr == end || *r.ptr != sep) return false;
  s.remove_prefix(static_cast<std::size_t>(r.ptr - s.data()) + 1);
  return true;
}

bool parse_ipc_list(std::string_view text, std::vector<double>& out) {
  out.clear();
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    double v = 0;
    const std::from_chars_result r = std::from_chars(p, end, v);
    if (r.ec != std::errc()) return false;
    out.push_back(v);
    if (r.ptr == end) return true;
    if (*r.ptr != ',') return false;
    p = r.ptr + 1;
  }
}

/// "<combo> ipc=<v>,<v>,..." — the tail of every cell line.
bool parse_cell(std::string_view text, AnswerCell& cell) {
  const std::size_t sep = text.find(" ipc=");
  if (sep == std::string_view::npos || sep == 0 ||
      !parse_ipc_list(text.substr(sep + 5), cell.ipc)) {
    return false;
  }
  cell.combo = text.substr(0, sep);
  return true;
}

void append_ipc_list(std::string& out, const std::vector<double>& ipc) {
  for (std::size_t i = 0; i < ipc.size(); ++i) {
    if (i > 0) out += ',';
    append_g17(out, ipc[i]);
  }
}

/// "<what> '<text>'" — a diagnostic naming the offending input.
std::string quoted(const char* what, std::string_view text) {
  std::string out = what;
  out += " '";
  out += text;
  out += '\'';
  return out;
}

}  // namespace

bool valid_query_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string submit_dir(const std::string& root) { return root + "/submit"; }
std::string answer_dir(const std::string& root) { return root + "/answers"; }

std::string query_path(const std::string& root, const std::string& id) {
  return submit_dir(root) + "/" + id + ".query";
}

std::string answer_path(const std::string& root, const std::string& id) {
  return answer_dir(root) + "/" + id + ".answer";
}

std::string encode_batch_query(const ServiceBatchQuery& query) {
  std::string out(kBatchQueryMagic);
  out += "\nid=" + query.id;
  for (const BatchItem& item : query.items) {
    out += "\nquery=" + item.scheme_id + "|" + item.scenario_text;
  }
  out += '\n';
  return out;
}

bool parse_batch_query(const std::string& text, ServiceBatchQuery& out,
                       std::string& error) {
  ServiceBatchQuery q;
  bool saw_magic = false;
  std::string_view rest = text;
  std::string_view line;
  while (next_line(rest, line)) {
    if (!saw_magic) {
      if (line != kBatchQueryMagic) {
        error = quoted("query does not start with", kBatchQueryMagic);
        return false;
      }
      saw_magic = true;
      continue;
    }
    std::string_view key;
    std::string_view value;
    if (!split_kv(line, key, value)) {
      error = quoted("bad batch query line", line);
      return false;
    }
    if (key == "id") {
      q.id = value;
    } else if (key == "query") {
      const std::size_t sep = value.find('|');
      if (sep == std::string_view::npos || sep == 0 ||
          sep + 1 == value.size()) {
        error = quoted("bad batch item", line) +
                " (want query=<scheme>|<scenario>)";
        return false;
      }
      if (q.items.size() >= kMaxBatchItems) {
        error = strf("batch exceeds %zu items", kMaxBatchItems);
        return false;
      }
      BatchItem item;
      item.scheme_id = value.substr(0, sep);
      item.scenario_text = value.substr(sep + 1);
      q.items.push_back(std::move(item));
    } else {
      error = quoted("unknown batch query key", key);
      return false;
    }
  }
  if (!saw_magic) {
    error = "empty batch query";
    return false;
  }
  if (!valid_query_id(q.id)) {
    error = "bad query id '" + q.id + "' ([A-Za-z0-9._-]+, max 128)";
    return false;
  }
  if (q.items.empty()) {
    error = "batch query has no query= lines";
    return false;
  }
  out = std::move(q);
  return true;
}

std::string encode_batch_answer(const ServiceBatchAnswer& answer) {
  std::string out(kBatchAnswerMagic);
  out += "\nid=" + answer.id;
  out += "\nparts=" + std::to_string(answer.parts.size());
  for (std::size_t i = 0; i < answer.parts.size(); ++i) {
    const BatchPart& part = answer.parts[i];
    out += "\npart=" + std::to_string(i) + " status=";
    out += status_name(part.status);
    if (part.status == AnswerStatus::kError) {
      out += " error=" + part.error;
    }
    if (part.status == AnswerStatus::kRetryAfter) {
      out += " retry-after-ms=" + std::to_string(part.retry_after_ms);
    }
  }
  for (std::size_t i = 0; i < answer.parts.size(); ++i) {
    const std::string prefix = "\ncell=" + std::to_string(i) + "/";
    for (const AnswerCell& cell : answer.parts[i].cells) {
      out += prefix;
      out += cell.combo;
      out += " ipc=";
      append_ipc_list(out, cell.ipc);
    }
  }
  out += '\n';
  return out;
}

bool parse_batch_answer(const std::string& text, ServiceBatchAnswer& out,
                        std::string& error) {
  ServiceBatchAnswer a;
  bool saw_magic = false;
  bool saw_parts = false;
  std::vector<bool> part_seen;
  std::string_view rest = text;
  std::string_view line;
  while (next_line(rest, line)) {
    if (!saw_magic) {
      if (line != kBatchAnswerMagic) {
        error = quoted("answer does not start with", kBatchAnswerMagic);
        return false;
      }
      saw_magic = true;
      continue;
    }
    std::string_view key;
    std::string_view value;
    if (!split_kv(line, key, value)) {
      error = quoted("bad batch answer line", line);
      return false;
    }
    if (key == "id") {
      a.id = value;
    } else if (key == "parts") {
      std::uint64_t n = 0;
      if (!parse_u64(value, n) || n == 0 || n > kMaxBatchItems) {
        error = quoted("bad parts count", value);
        return false;
      }
      a.parts.resize(static_cast<std::size_t>(n));
      part_seen.assign(a.parts.size(), false);
      saw_parts = true;
    } else if (key == "part") {
      // "part=<i> status=<s> [error=...|retry-after-ms=N]"; the status
      // token carries the whole rest of the line for error text.
      if (!saw_parts) {
        error = "part= line before parts=";
        return false;
      }
      std::uint64_t i = 0;
      if (!take_index(value, ' ', i) || i >= a.parts.size()) {
        error = quoted("bad part line", line);
        return false;
      }
      if (part_seen[static_cast<std::size_t>(i)]) {
        error = strf("duplicate part %llu",
                     static_cast<unsigned long long>(i));
        return false;
      }
      part_seen[static_cast<std::size_t>(i)] = true;
      BatchPart& part = a.parts[static_cast<std::size_t>(i)];
      std::string_view skey;
      std::string_view sval;
      if (!split_kv(value, skey, sval) || skey != "status") {
        error = quoted("bad part line", line);
        return false;
      }
      // The status value runs to the first space; what follows is the
      // optional error=/retry-after-ms= payload.
      const std::size_t sp = sval.find(' ');
      const std::string_view status_tok = sval.substr(0, sp);
      const std::string_view payload =
          sp == std::string_view::npos ? std::string_view()
                                       : sval.substr(sp + 1);
      if (!status_from_name(status_tok, part.status)) {
        error = quoted("unknown status", status_tok);
        return false;
      }
      std::string_view pkey;
      std::string_view pval;
      if (part.status == AnswerStatus::kError) {
        if (!split_kv(payload, pkey, pval) || pkey != "error") {
          error = quoted("error part without error= in", line);
          return false;
        }
        part.error = pval;
      } else if (part.status == AnswerStatus::kRetryAfter) {
        if (!split_kv(payload, pkey, pval) || pkey != "retry-after-ms") {
          error = quoted("retry-after part without retry-after-ms= in",
                         line);
          return false;
        }
        if (!parse_u64(pval, part.retry_after_ms)) {
          error = quoted("bad retry-after-ms", pval);
          return false;
        }
      } else if (!payload.empty()) {
        error = quoted("unexpected payload on ok part", line);
        return false;
      }
    } else if (key == "cell") {
      if (!saw_parts) {
        error = "cell= line before parts=";
        return false;
      }
      std::uint64_t i = 0;
      AnswerCell cell;
      if (!take_index(value, '/', i) || i >= a.parts.size() ||
          !parse_cell(value, cell)) {
        error = quoted("bad cell line", line);
        return false;
      }
      a.parts[static_cast<std::size_t>(i)].cells.push_back(std::move(cell));
    } else {
      error = quoted("unknown batch answer key", key);
      return false;
    }
  }
  if (!saw_magic || !saw_parts) {
    error = saw_magic ? "batch answer is missing parts=" : "empty answer";
    return false;
  }
  for (std::size_t i = 0; i < part_seen.size(); ++i) {
    if (!part_seen[i]) {
      error = strf("batch answer is missing part %zu", i);
      return false;
    }
  }
  out = std::move(a);
  return true;
}

RenameWatch::RenameWatch(const std::string& dir)
    : fd_(::inotify_init1(IN_NONBLOCK | IN_CLOEXEC)) {
  if (fd_ >= 0 && ::inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO) < 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

RenameWatch::~RenameWatch() {
  if (fd_ >= 0) ::close(fd_);
}

void RenameWatch::drain() const {
  if (fd_ < 0) return;
  alignas(struct inotify_event) char buf[4096];
  while (::read(fd_, buf, sizeof buf) > 0) {
  }
}

void RenameWatch::wait_ms(std::uint64_t ms) const {
  const int timeout = static_cast<int>(std::min<std::uint64_t>(ms, INT_MAX));
  if (fd_ < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout));
    return;
  }
  struct pollfd pfd{fd_, POLLIN, 0};
  while (::poll(&pfd, 1, timeout) < 0 && errno == EINTR) {
  }
}

ServiceClient::ServiceClient(std::string root)
    : env_(&fault::env()), root_(std::move(root)) {
  env_->create_directories(submit_dir(root_));
  env_->create_directories(answer_dir(root_));
}

const RenameWatch& ServiceClient::answer_watch() const {
  std::call_once(watch_once_, [this] {
    watch_ = std::make_unique<RenameWatch>(answer_dir(root_));
  });
  return *watch_;
}

bool ServiceClient::submit_batch(const ServiceBatchQuery& query,
                                 std::string* error) const {
  if (!valid_query_id(query.id)) {
    if (error != nullptr) {
      *error = "bad query id '" + query.id + "' ([A-Za-z0-9._-]+, max 128)";
    }
    return false;
  }
  if (query.items.empty() || query.items.size() > kMaxBatchItems) {
    if (error != nullptr) {
      *error = strf("batch must carry 1..%zu items, got %zu",
                    kMaxBatchItems, query.items.size());
    }
    return false;
  }
  // The server must never ingest a half-written query.
  const std::string text = encode_batch_query(query);
  const std::string path = query_path(root_, query.id);
  if (!publish_verified(*env_, path,
                        reinterpret_cast<const std::byte*>(text.data()),
                        text.size())) {
    if (error != nullptr) *error = "failed to publish " + path;
    return false;
  }
  return true;
}

bool ServiceClient::try_poll_batch(const std::string& id,
                                   ServiceBatchAnswer& out) const {
  std::vector<std::byte> raw;
  if (!env_->read_file(answer_path(root_, id), raw)) return false;
  const std::string text(reinterpret_cast<const char*>(raw.data()),
                         raw.size());
  std::string error;
  if (!parse_batch_answer(text, out, error)) {
    // The answer exists but does not parse (bit rot on the answer
    // file): surface it as an error rather than spinning forever.
    out = ServiceBatchAnswer{};
    out.id = id;
    out.parts.resize(1);
    out.parts[0].status = AnswerStatus::kError;
    out.parts[0].error = "unparseable answer: " + error;
  }
  return true;
}

bool ServiceClient::wait_batch(const std::string& id,
                               ServiceBatchAnswer& out,
                               std::uint64_t timeout_ms,
                               std::uint64_t poll_ms) const {
  // An answer already there needs no watch.
  if (try_poll_batch(id, out)) return true;
  const RenameWatch& watch = answer_watch();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (true) {
    watch.drain();
    if (try_poll_batch(id, out)) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
    watch.wait_ms(std::min<std::uint64_t>(poll_ms > 0 ? poll_ms : 1,
                                          static_cast<std::uint64_t>(left)));
  }
}

}  // namespace snug::sim::service
