#include "util/file_io.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace hpcem {

std::optional<std::string> read_text_file(const std::string& path) {
  // file_size fails on directories and other non-regular files, which a
  // stream would open and then report a meaningless size for.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text(static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) return std::nullopt;
  return text;
}

}  // namespace hpcem
