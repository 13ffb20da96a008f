#include "io/compressed.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "io/checksum.hpp"
#include "io/volume_io.hpp"
#include "util/io_error.hpp"
#include "volume/brick_index.hpp"

namespace ifet {

namespace {

constexpr char kMagic[] = "ifet-cseq";
// v2 container: the header line also carries the brick size, index
// entries widen to 32 bytes (payload offset/size + brick offset/size),
// and each step gets a CRC'd BrickIndex record next to its payload.
constexpr char kMagicV2[] = "ifet-cseq2";
// Fixed-size prefix of a per-step record: bits u8, lo f32, hi f32,
// payload-size u64. A CRC32 over prefix+payload may follow the payload
// (absent in legacy files; see io/checksum.hpp).
constexpr std::size_t kRecordPrefixBytes = 17;
constexpr std::size_t kRecordCrcBytes = 4;
constexpr std::size_t kIndexEntryBytesV1 = 16;
constexpr std::size_t kIndexEntryBytesV2 = 32;

inline std::uint32_t quant_levels(QuantBits bits) {
  return bits == QuantBits::k8 ? 255u : 65535u;
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back((v >> (8 * b)) & 0xff);
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back((v >> (8 * b)) & 0xff);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return v;
}

/// True when the byte range [offset, offset + size) neither overflows nor
/// runs past `file_bytes`.
bool within(std::uint64_t offset, std::uint64_t size,
            std::uint64_t file_bytes) {
  std::uint64_t end = 0;
  return !__builtin_add_overflow(offset, size, &end) && end <= file_bytes;
}

}  // namespace

CompressedVolume compress_volume(const VolumeF& volume, QuantBits bits) {
  IFET_REQUIRE(!volume.empty(), "compress_volume: empty volume");
  CompressedVolume out;
  out.dims = volume.dims();
  out.bits = bits;
  float lo = volume[0], hi = volume[0];
  for (float v : volume.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  out.value_lo = lo;
  out.value_hi = hi;
  const double span = hi > lo ? hi - lo : 1.0;
  const std::uint32_t levels = quant_levels(bits);

  // Quantize, then run-length encode (run byte 1..255 + sample).
  auto quantize = [&](float v) {
    double t = (v - lo) / span;
    return static_cast<std::uint32_t>(std::lround(t * levels));
  };
  std::uint32_t current = quantize(volume[0]);
  std::uint32_t run = 0;
  auto flush = [&]() {
    while (run > 0) {
      std::uint8_t chunk = static_cast<std::uint8_t>(std::min(run, 255u));
      out.payload.push_back(chunk);
      out.payload.push_back(static_cast<std::uint8_t>(current & 0xff));
      if (bits == QuantBits::k16) {
        out.payload.push_back(static_cast<std::uint8_t>(current >> 8));
      }
      run -= chunk;
    }
  };
  for (float v : volume.data()) {
    std::uint32_t q = quantize(v);
    if (q == current) {
      ++run;
    } else {
      flush();
      current = q;
      run = 1;
    }
  }
  flush();
  return out;
}

VolumeF decompress_volume(const CompressedVolume& compressed) {
  VolumeF out(compressed.dims);
  const double span = compressed.value_hi > compressed.value_lo
                          ? compressed.value_hi - compressed.value_lo
                          : 1.0;
  const std::uint32_t levels = quant_levels(compressed.bits);
  const int sample_bytes = compressed.bits == QuantBits::k8 ? 1 : 2;
  std::size_t cursor = 0;
  std::size_t voxel = 0;
  const auto& payload = compressed.payload;
  while (voxel < out.size()) {
    if (cursor + 1 + static_cast<std::size_t>(sample_bytes) > payload.size()) {
      throw CorruptDataError(
          "decompress_volume: RLE stream ends mid-volume (truncated "
          "payload)");
    }
    std::uint32_t run = payload[cursor++];
    std::uint32_t q = payload[cursor++];
    if (sample_bytes == 2) {
      q |= static_cast<std::uint32_t>(payload[cursor++]) << 8;
    }
    float value = static_cast<float>(
        compressed.value_lo + span * q / static_cast<double>(levels));
    if (voxel + run > out.size()) {
      throw CorruptDataError("decompress_volume: run overflows volume");
    }
    for (std::uint32_t r = 0; r < run; ++r) out[voxel++] = value;
  }
  if (cursor != payload.size()) {
    throw CorruptDataError("decompress_volume: trailing payload bytes");
  }
  return out;
}

double quantization_error_bound(const CompressedVolume& compressed) {
  double span = compressed.value_hi - compressed.value_lo;
  if (span <= 0.0) return 0.0;
  return 0.5 * span / quant_levels(compressed.bits);
}

// --- Sequence container ------------------------------------------------------

struct CompressedSequenceWriter::Impl {
  std::ofstream out;
  std::streampos index_pos;
  std::vector<std::uint8_t> index_bytes;
  int num_steps;
  bool with_checksum;
  int brick_size;
};

CompressedSequenceWriter::CompressedSequenceWriter(
    const std::string& path, Dims dims, int num_steps,
    std::pair<double, double> value_range, bool with_checksum,
    int brick_size)
    : impl_(std::make_unique<Impl>()) {
  IFET_REQUIRE(num_steps > 0, "CompressedSequenceWriter: need steps");
  IFET_REQUIRE(brick_size >= 0,
               "CompressedSequenceWriter: brick size must be >= 0");
  impl_->out.open(path, std::ios::binary);
  if (!impl_->out.good()) {
    throw NotFoundError("CompressedSequenceWriter: cannot open " + path);
  }
  impl_->num_steps = num_steps;
  impl_->with_checksum = with_checksum;
  impl_->brick_size = brick_size;
  if (brick_size > 0) {
    impl_->out << kMagicV2 << ' ' << dims.x << ' ' << dims.y << ' ' << dims.z
               << ' ' << num_steps << ' ' << value_range.first << ' '
               << value_range.second << ' ' << brick_size << '\n';
  } else {
    impl_->out << kMagic << ' ' << dims.x << ' ' << dims.y << ' ' << dims.z
               << ' ' << num_steps << ' ' << value_range.first << ' '
               << value_range.second << '\n';
  }
  impl_->index_pos = impl_->out.tellp();
  // Reserve the index region, filled in close().
  const std::size_t entry_bytes =
      brick_size > 0 ? kIndexEntryBytesV2 : kIndexEntryBytesV1;
  std::vector<char> zeros(static_cast<std::size_t>(num_steps) * entry_bytes,
                          0);
  impl_->out.write(zeros.data(),
                   static_cast<std::streamsize>(zeros.size()));
}

CompressedSequenceWriter::~CompressedSequenceWriter() {
  if (impl_ && impl_->out.is_open()) {
    if (steps_written_ == impl_->num_steps) {
      close();
    } else {
      // Incomplete sequence: never throw from a destructor. Finalize
      // explicitly anyway — write the partial index so the reader can
      // report *which* step the file truncates at (CorruptDataError with
      // the step number) instead of rejecting an all-zero index with a
      // generic message. ofstream without exceptions enabled only sets
      // failbit on error, so this cannot throw.
      impl_->out.seekp(impl_->index_pos);
      impl_->out.write(
          reinterpret_cast<const char*>(impl_->index_bytes.data()),
          static_cast<std::streamsize>(impl_->index_bytes.size()));
      impl_->out.close();
    }
  }
}

void CompressedSequenceWriter::append(const CompressedVolume& volume) {
  IFET_REQUIRE(steps_written_ < impl_->num_steps,
               "CompressedSequenceWriter: too many steps appended");
  // Per-step record: bits u8, lo f32, hi f32, payload u64 + bytes, then a
  // CRC32 over everything before it (omitted in legacy mode).
  std::vector<std::uint8_t> record;
  record.push_back(static_cast<std::uint8_t>(volume.bits));
  std::uint8_t fbytes[4];
  std::memcpy(fbytes, &volume.value_lo, 4);
  record.insert(record.end(), fbytes, fbytes + 4);
  std::memcpy(fbytes, &volume.value_hi, 4);
  record.insert(record.end(), fbytes, fbytes + 4);
  append_u64(record, volume.payload.size());
  record.insert(record.end(), volume.payload.begin(), volume.payload.end());
  if (impl_->with_checksum) {
    append_u32(record, crc32(record.data(), record.size()));
  }

  auto offset = static_cast<std::uint64_t>(impl_->out.tellp());
  impl_->out.write(reinterpret_cast<const char*>(record.data()),
                   static_cast<std::streamsize>(record.size()));
  if (!impl_->out.good()) {
    throw IoError("CompressedSequenceWriter: write failed");
  }
  append_u64(impl_->index_bytes, offset);
  append_u64(impl_->index_bytes, record.size());

  if (impl_->brick_size > 0) {
    // Brick ranges MUST cover the *reconstructed* values the renderer will
    // actually sample: quantization can push a decoded voxel up to half a
    // quant step outside the original range, so building from `volume`'s
    // decoded form (not the pre-compression floats) keeps the skip
    // condition provable. Always CRC'd — the section is new, so there is
    // no checksum-less legacy to emulate.
    const BrickIndex bricks =
        BrickIndex::build(decompress_volume(volume), impl_->brick_size);
    std::vector<std::uint8_t> brick_record = bricks.serialize();
    append_u32(brick_record, crc32(brick_record.data(), brick_record.size()));
    auto brick_offset = static_cast<std::uint64_t>(impl_->out.tellp());
    impl_->out.write(reinterpret_cast<const char*>(brick_record.data()),
                     static_cast<std::streamsize>(brick_record.size()));
    if (!impl_->out.good()) {
      throw IoError("CompressedSequenceWriter: brick-record write failed");
    }
    append_u64(impl_->index_bytes, brick_offset);
    append_u64(impl_->index_bytes, brick_record.size());
  }
  ++steps_written_;
}

void CompressedSequenceWriter::close() {
  IFET_REQUIRE(steps_written_ == impl_->num_steps,
               "CompressedSequenceWriter: closed before all steps appended");
  impl_->out.seekp(impl_->index_pos);
  impl_->out.write(reinterpret_cast<const char*>(impl_->index_bytes.data()),
                   static_cast<std::streamsize>(impl_->index_bytes.size()));
  impl_->out.close();
}

CompressedFileSource::CompressedFileSource(const std::string& path)
    : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw NotFoundError("CompressedFileSource: cannot open " + path);
  }
  std::string line;
  std::getline(in, line);
  std::istringstream header(line);
  std::string magic;
  header >> magic >> dims_.x >> dims_.y >> dims_.z >> num_steps_ >>
      range_.first >> range_.second;
  const bool v2 = magic == kMagicV2;
  if (v2) {
    header >> brick_size_;
    if (brick_size_ <= 0) {
      throw CorruptDataError("CompressedFileSource: v2 header without a "
                             "positive brick size in " +
                             path);
    }
  }
  if ((magic != kMagic && !v2) || !header || num_steps_ <= 0) {
    throw CorruptDataError("CompressedFileSource: bad header in " + path);
  }
  // Header fields size every later allocation: a decoded step holds
  // x*y*z floats.
  (void)checked_volume_bytes(dims_, "CompressedFileSource", path);
  const std::size_t entry_bytes =
      v2 ? kIndexEntryBytesV2 : kIndexEntryBytesV1;
  // The index must fit in the bytes that follow the header before it is
  // allocated (tellg is -1 when the header line had no newline).
  const std::streamoff index_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  if (index_start < 0 || file_end < index_start ||
      static_cast<std::uint64_t>(num_steps_) >
          static_cast<std::uint64_t>(file_end - index_start) / entry_bytes) {
    throw CorruptDataError("CompressedFileSource: index of " +
                           std::to_string(num_steps_) +
                           " steps overruns " + path);
  }
  in.seekg(index_start);
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(num_steps_) *
                                entry_bytes);
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  if (in.gcount() != static_cast<std::streamsize>(raw.size())) {
    throw CorruptDataError("CompressedFileSource: truncated index in " +
                           path);
  }
  const auto file_bytes = static_cast<std::uint64_t>(file_end);
  index_.resize(static_cast<std::size_t>(num_steps_));
  for (int s = 0; s < num_steps_; ++s) {
    IndexEntry& entry = index_[static_cast<std::size_t>(s)];
    const std::uint8_t* p = raw.data() + entry_bytes * s;
    entry.offset = read_u64(p);
    entry.size = read_u64(p + 8);
    if (v2) {
      entry.brick_offset = read_u64(p + 16);
      entry.brick_size = read_u64(p + 24);
    } else {
      entry.brick_offset = 0;
      entry.brick_size = 0;
    }
    if (entry.size == 0 || (v2 && entry.brick_size == 0)) {
      throw CorruptDataError(
          "CompressedFileSource: " + path + " truncates at step " +
          std::to_string(s) +
          " (writer closed before all steps were appended)");
    }
    // generate and brick_metadata allocate entry.size / entry.brick_size
    // bytes, so each record must lie inside the file (v1 entries carry an
    // empty brick record at offset 0).
    if (!within(entry.offset, entry.size, file_bytes) ||
        !within(entry.brick_offset, entry.brick_size, file_bytes)) {
      throw CorruptDataError("CompressedFileSource: index entry for step " +
                             std::to_string(s) + " overruns " + path);
    }
  }
}

VolumeF CompressedFileSource::generate(int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "CompressedFileSource: step out of range");
  const IndexEntry& entry = index_[static_cast<std::size_t>(step)];
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) {
    throw NotFoundError("CompressedFileSource: cannot reopen " + path_);
  }
  in.seekg(static_cast<std::streamoff>(entry.offset));
  std::vector<std::uint8_t> record(entry.size);
  in.read(reinterpret_cast<char*>(record.data()),
          static_cast<std::streamsize>(record.size()));
  if (in.gcount() != static_cast<std::streamsize>(record.size())) {
    throw CorruptDataError("CompressedFileSource: truncated record for step " +
                           std::to_string(step) + " in " + path_);
  }
  if (record.size() < kRecordPrefixBytes) {
    throw CorruptDataError("CompressedFileSource: record too small for step " +
                           std::to_string(step) + " in " + path_);
  }
  CompressedVolume volume;
  volume.dims = dims_;
  volume.bits = static_cast<QuantBits>(record[0]);
  std::memcpy(&volume.value_lo, record.data() + 1, 4);
  std::memcpy(&volume.value_hi, record.data() + 5, 4);
  const std::uint64_t payload_size = read_u64(record.data() + 9);
  if (payload_size > record.size() - kRecordPrefixBytes) {
    throw CorruptDataError(
        "CompressedFileSource: payload size overruns record for step " +
        std::to_string(step) + " in " + path_);
  }
  const std::size_t checked_bytes =
      kRecordPrefixBytes + static_cast<std::size_t>(payload_size);
  if (record.size() == checked_bytes + kRecordCrcBytes) {
    const std::uint32_t expected = read_u32(record.data() + checked_bytes);
    if (crc32(record.data(), checked_bytes) != expected) {
      ++checksum_counters().mismatches;
      throw CorruptDataError(
          "CompressedFileSource: checksum mismatch for step " +
          std::to_string(step) + " in " + path_ +
          " (frame corrupted on disk or in transit)");
    }
    ++checksum_counters().verified;
  } else if (record.size() == checked_bytes) {
    ++checksum_counters().unverified;  // legacy checksum-less frame
  } else {
    throw CorruptDataError(
        "CompressedFileSource: payload size mismatch for step " +
        std::to_string(step) + " in " + path_);
  }
  volume.payload.assign(record.begin() + kRecordPrefixBytes,
                        record.begin() + static_cast<std::ptrdiff_t>(
                                             checked_bytes));
  return decompress_volume(volume);
}

std::shared_ptr<const BrickIndex> CompressedFileSource::brick_metadata(
    int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "CompressedFileSource: step out of range");
  if (brick_size_ == 0) return nullptr;  // v1 container: no brick section
  const IndexEntry& entry = index_[static_cast<std::size_t>(step)];
  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) {
    throw NotFoundError("CompressedFileSource: cannot reopen " + path_);
  }
  // Seek + read of the small brick record only; the step's compressed
  // payload is never read, let alone decoded.
  in.seekg(static_cast<std::streamoff>(entry.brick_offset));
  std::vector<std::uint8_t> record(entry.brick_size);
  in.read(reinterpret_cast<char*>(record.data()),
          static_cast<std::streamsize>(record.size()));
  if (in.gcount() != static_cast<std::streamsize>(record.size())) {
    throw CorruptDataError(
        "CompressedFileSource: truncated brick record for step " +
        std::to_string(step) + " in " + path_);
  }
  if (record.size() <= kRecordCrcBytes) {
    throw CorruptDataError(
        "CompressedFileSource: brick record too small for step " +
        std::to_string(step) + " in " + path_);
  }
  const std::size_t checked_bytes = record.size() - kRecordCrcBytes;
  const std::uint32_t expected = read_u32(record.data() + checked_bytes);
  if (crc32(record.data(), checked_bytes) != expected) {
    ++checksum_counters().mismatches;
    throw CorruptDataError(
        "CompressedFileSource: brick-record checksum mismatch for step " +
        std::to_string(step) + " in " + path_ +
        " (section corrupted on disk or in transit)");
  }
  ++checksum_counters().verified;
  return std::make_shared<const BrickIndex>(BrickIndex::deserialize(
      dims_, brick_size_, record.data(), checked_bytes));
}

std::size_t CompressedFileSource::total_payload_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : index_) total += entry.size;
  return total;
}

void write_compressed_sequence(const VolumeSource& source,
                               const std::string& path, QuantBits bits,
                               bool with_checksum, int brick_size) {
  CompressedSequenceWriter writer(path, source.dims(), source.num_steps(),
                                  source.value_range(), with_checksum,
                                  brick_size);
  for (int s = 0; s < source.num_steps(); ++s) {
    writer.append(compress_volume(source.generate(s), bits));
  }
  writer.close();
}

}  // namespace ifet
