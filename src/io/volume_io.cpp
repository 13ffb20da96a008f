#include "io/volume_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "io/checksum.hpp"
#include "util/io_error.hpp"

namespace ifet {

namespace {

std::size_t payload_bytes(const VolumeF& volume) {
  return volume.size() * sizeof(float);
}

std::uint32_t payload_crc(const VolumeF& volume) {
  return crc32(volume.data().data(), payload_bytes(volume));
}

}  // namespace

void write_raw(const VolumeF& volume, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) throw NotFoundError("write_raw: cannot open " + path);
  out.write(reinterpret_cast<const char*>(volume.data().data()),
            static_cast<std::streamsize>(payload_bytes(volume)));
  if (!out.good()) throw IoError("write_raw: write failed for " + path);
}

VolumeF read_raw(const std::string& path, Dims dims) {
  IFET_REQUIRE(dims.count() > 0, "read_raw: empty dims for " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw NotFoundError("read_raw: cannot open " + path);
  VolumeF volume(dims);
  in.read(reinterpret_cast<char*>(volume.data().data()),
          static_cast<std::streamsize>(payload_bytes(volume)));
  if (in.gcount() != static_cast<std::streamsize>(payload_bytes(volume))) {
    throw CorruptDataError("read_raw: file shorter than dims require: " +
                           path);
  }
  ++checksum_counters().unverified;  // headerless: nothing to verify
  return volume;
}

void write_vol(const VolumeF& volume, const std::string& path,
               bool with_checksum) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) throw NotFoundError("write_vol: cannot open " + path);
  out << "ifet-vol " << volume.dims().x << ' ' << volume.dims().y << ' '
      << volume.dims().z;
  if (with_checksum) out << " crc32 " << payload_crc(volume);
  out << '\n';
  out.write(reinterpret_cast<const char*>(volume.data().data()),
            static_cast<std::streamsize>(payload_bytes(volume)));
  if (!out.good()) throw IoError("write_vol: write failed for " + path);
}

VolumeF read_vol(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw NotFoundError("read_vol: cannot open " + path);
  std::string line;
  std::getline(in, line);
  std::istringstream header(line);
  std::string magic;
  Dims dims;
  header >> magic >> dims.x >> dims.y >> dims.z;
  if (magic != "ifet-vol" || !header) {
    throw CorruptDataError("read_vol: bad header in " + path);
  }
  // Optional trailing "crc32 <sum>" (absent in legacy files).
  bool has_crc = false;
  std::uint32_t expected_crc = 0;
  std::string crc_tag;
  if (header >> crc_tag) {
    if (crc_tag != "crc32" || !(header >> expected_crc)) {
      throw CorruptDataError("read_vol: malformed checksum field in " + path);
    }
    has_crc = true;
  }
  // The payload must fit in the bytes left in the file before it is
  // allocated (tellg is -1 when the header line had no newline).
  const std::size_t bytes = checked_volume_bytes(dims, "read_vol", path);
  const std::streamoff payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  if (payload_start < 0 || file_end < payload_start ||
      static_cast<std::uint64_t>(file_end - payload_start) < bytes) {
    throw CorruptDataError("read_vol: truncated payload in " + path);
  }
  in.seekg(payload_start);
  VolumeF volume(dims);
  in.read(reinterpret_cast<char*>(volume.data().data()),
          static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    throw CorruptDataError("read_vol: truncated payload in " + path);
  }
  if (!has_crc) {
    ++checksum_counters().unverified;
    return volume;
  }
  if (payload_crc(volume) != expected_crc) {
    ++checksum_counters().mismatches;
    throw CorruptDataError("read_vol: checksum mismatch in " + path +
                           " (payload corrupted on disk or in transit)");
  }
  ++checksum_counters().verified;
  return volume;
}

std::size_t checked_volume_bytes(Dims dims, const std::string& who,
                                 const std::string& path) {
  std::size_t bytes = sizeof(float);
  for (int dim : {dims.x, dims.y, dims.z}) {
    if (dim <= 0 || __builtin_mul_overflow(
                        bytes, static_cast<std::size_t>(dim), &bytes)) {
      throw CorruptDataError(who + ": bad dims " + std::to_string(dims.x) +
                             "x" + std::to_string(dims.y) + "x" +
                             std::to_string(dims.z) + " in " + path);
    }
  }
  return bytes;
}

}  // namespace ifet
