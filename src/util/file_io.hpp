// Whole-file reads.
#pragma once

#include <optional>
#include <string>

namespace hpcem {

/// The bytes of a regular file, read with one sized read into one string;
/// nullopt when the file cannot be opened or read in full.  Callers turn
/// nullopt into their own error text.
[[nodiscard]] std::optional<std::string> read_text_file(
    const std::string& path);

}  // namespace hpcem
