// Publish temp names — the one spelling of `<target>.tmp.<pid>.<seq>`.
//
// Every atomic publish in the repo (store entries, journal rewrites and
// the campaign service's wire files; sim/blob_store.hpp) writes a temp
// named here and renames it onto its target.  The pid lets an opening
// store reap temps whose writer died; the process-wide sequence keeps
// two writers of one process (threads, or stores over one directory)
// off each other's names.  The fault injector (common/fault.hpp) keys
// its decisions on the name with the writer-unique `.<pid>.<seq>` tail
// removed, so a seeded plan tears the same publishes in every process.
#pragma once

#include <string>
#include <string_view>

namespace snug {

/// A fresh temp name to publish `target` through.
[[nodiscard]] std::string temp_name(const std::string& target);

/// Splits a name built by temp_name() into its `<target>.tmp` stem and
/// its writer's pid; false when `path` does not end in
/// `.tmp.<pid>.<seq>` (decimal pid and seq).
bool split_temp_name(std::string_view path, std::string_view& stem,
                     long& pid);

}  // namespace snug
