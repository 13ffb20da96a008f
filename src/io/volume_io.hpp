// Volume file I/O.
//
// Two formats:
//  * raw  — headerless float32 stream in x-fastest order (the convention of
//           the public flow data sets the paper uses; caller supplies dims).
//           Headerless means no room for a checksum: raw reads always count
//           as unverified.
//  * .vol — the raw payload preceded by a one-line ASCII header
//           "ifet-vol <dx> <dy> <dz> crc32 <sum>\n" so files are
//           self-describing and the payload is verifiable. Readers accept
//           the legacy checksum-less header "ifet-vol <dx> <dy> <dz>\n"
//           too (the payload then loads unverified; see io/checksum.hpp).
// Byte order is host order (the library targets a single machine, like the
// paper's workstation pipeline).
//
// Failures throw the typed taxonomy of util/io_error.hpp: NotFoundError
// when the file cannot be opened, CorruptDataError for bad headers,
// truncated payloads, and checksum mismatches (docs/ROBUSTNESS.md).
#pragma once

#include <string>

#include "volume/volume.hpp"

namespace ifet {

/// Write headerless float32 data.
void write_raw(const VolumeF& volume, const std::string& path);

/// Read headerless float32 data of known dimensions.
VolumeF read_raw(const std::string& path, Dims dims);

/// Write self-describing .vol file. `with_checksum = false` writes the
/// legacy header (tests pin the backward-compatibility path with it).
void write_vol(const VolumeF& volume, const std::string& path,
               bool with_checksum = true);

/// Read self-describing .vol file (verifying the checksum when present).
/// Header dims are checked before the payload is allocated.
VolumeF read_vol(const std::string& path);

/// Float32 byte count of a volume with header-supplied `dims`. Throws
/// CorruptDataError ("<who>: bad dims ... in <path>") when a dim is not
/// positive or the count overflows size_t, so no allocation is ever sized
/// by an unchecked header field.
std::size_t checked_volume_bytes(Dims dims, const std::string& who,
                                 const std::string& path);

}  // namespace ifet
