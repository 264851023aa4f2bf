// Minimal command-line flag parser for examples and bench binaries.
//
// Flags look like:  --name=value  or  --flag  (boolean).  Unknown flags are
// an error so typos do not silently fall back to defaults.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace snug {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  /// Registers a flag with a help line; returns its value (or fallback).
  std::string get_string(const std::string& name, const std::string& fallback,
                         const std::string& help);
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       const std::string& help);
  double get_double(const std::string& name, double fallback,
                    const std::string& help);
  bool get_bool(const std::string& name, bool fallback,
                const std::string& help);

  /// Registers the conventional `--jobs=N` flag shared by every campaign
  /// binary: N > 0 means exactly N workers, 0 (the default) means one per
  /// hardware thread.  The raw request is returned; resolution to a
  /// worker count happens in sim::resolve_jobs (sim/campaign.hpp).
  std::int64_t get_jobs();

  /// True when --help was passed; callers should print usage() and exit.
  [[nodiscard]] bool help_requested() const noexcept { return help_; }

  /// Usage text assembled from all registered flags.
  [[nodiscard]] std::string usage() const;

  /// Aborts with a message if any provided flag was never registered.
  void check_unknown() const;

  [[nodiscard]] const std::string& program() const noexcept {
    return program_;
  }

 private:
  struct HelpEntry {
    std::string name;
    std::string fallback;
    std::string help;
  };

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<HelpEntry> entries_;
  bool help_ = false;
};

/// Thread-safe progress reporter for long campaigns.  Each report prints
/// one `[done/total] label note` line; calls may come from any worker
/// thread — lines are serialised and never torn.  Construct with
/// enabled=false (e.g. from --quiet) to make report() a no-op.
class ProgressMeter {
 public:
  explicit ProgressMeter(bool enabled = true, std::FILE* out = stderr);

  void report(std::size_t done, std::size_t total, const std::string& label,
              const std::string& note);

 private:
  bool enabled_;
  std::FILE* out_;
  std::mutex mu_;
};

}  // namespace snug
