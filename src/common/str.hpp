// printf-style string formatting helpers.  libstdc++ 12 does not ship
// std::format, so benches and table renderers use these instead.
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace snug {

/// snprintf into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);

/// Appends `v` exactly as printf("%.17g") prints it in the C locale —
/// 17 significant digits, which round-trip every IEEE double — through
/// std::to_chars: locale-independent and allocation-free.  Answer files
/// and cell CSVs use it, so their bytes can be diffed across runs.
void append_g17(std::string& out, double v);

/// Splits on a single character, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);

/// Fixed-point percentage like "+13.9%" / "-0.5%".
std::string pct(double fraction, int decimals = 1);

}  // namespace snug
