#include "durability/checkpoint.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace nela::durability {

namespace {

// "NELACKP2" as little-endian bytes: the per-shard-slice checkpoint format.
constexpr uint64_t kShardCheckpointMagic = 0x32504b43414c454eull;

void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

void PutU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

void PutU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

struct Reader {
  const unsigned char* data;
  size_t size;
  size_t pos = 0;

  bool TakeU8(uint8_t* value) {
    if (pos + 1 > size) return false;
    *value = data[pos++];
    return true;
  }
  bool TakeU32(uint32_t* value) {
    if (pos + 4 > size) return false;
    *value = 0;
    for (int i = 0; i < 4; ++i) {
      *value |= static_cast<uint32_t>(data[pos + static_cast<size_t>(i)])
                << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool TakeU64(uint64_t* value) {
    if (pos + 8 > size) return false;
    *value = 0;
    for (int i = 0; i < 8; ++i) {
      *value |= static_cast<uint64_t>(data[pos + static_cast<size_t>(i)])
                << (8 * i);
    }
    pos += 8;
    return true;
  }
};

util::Status WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return util::UnavailableError("cannot open checkpoint file: " + path);
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  if (!wrote || !flushed) {
    return util::UnavailableError("short write on checkpoint file: " + path);
  }
  return util::Status();
}

}  // namespace

std::string CheckpointPath(const std::string& dir, uint64_t seq) {
  return dir + "/checkpoint-" + std::to_string(seq) + ".ckpt";
}

util::Status WriteCheckpointFile(const std::string& path,
                                 const std::string& encoded) {
  return WriteBytes(path, encoded);
}

util::Status WriteTornCheckpointFile(const std::string& path,
                                     const std::string& encoded,
                                     size_t keep_bytes) {
  std::string torn = encoded;
  if (keep_bytes < torn.size()) torn.resize(keep_bytes);
  return WriteBytes(path, torn);
}

std::string EncodeShardCheckpoint(const ShardCheckpointImage& image) {
  std::string body;
  PutU64(&body, kShardCheckpointMagic);
  PutU32(&body, image.user_count);
  PutU64(&body, image.covered_lsn);
  PutU32(&body, static_cast<uint32_t>(image.clusters.size()));
  for (const ShardCheckpointCluster& entry : image.clusters) {
    PutU32(&body, entry.id);
    PutU32(&body, static_cast<uint32_t>(entry.info.members.size()));
    for (graph::VertexId member : entry.info.members) PutU32(&body, member);
    PutU64(&body, util::DoubleBits(entry.info.connectivity));
    PutU8(&body, entry.info.valid ? 1 : 0);
    PutU8(&body, entry.info.region.has_value() ? 1 : 0);
    if (entry.info.region.has_value()) {
      PutU64(&body, util::DoubleBits(entry.info.region->min_x()));
      PutU64(&body, util::DoubleBits(entry.info.region->min_y()));
      PutU64(&body, util::DoubleBits(entry.info.region->max_x()));
      PutU64(&body, util::DoubleBits(entry.info.region->max_y()));
    }
  }
  PutU64(&body, util::FnvHashBytes(body.data(), body.size()));
  return body;
}

util::Result<ShardCheckpointImage> ReadShardCheckpoint(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::NotFoundError("cannot open checkpoint file: " + path);
  }
  std::string contents;
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return util::UnavailableError("read error on checkpoint file: " + path);
  }

  if (contents.size() < 8) {
    return util::InvalidArgumentError("checkpoint file too small: " + path);
  }
  const size_t body_size = contents.size() - 8;
  Reader trailer{reinterpret_cast<const unsigned char*>(contents.data()),
                 contents.size(), body_size};
  uint64_t stored_checksum = 0;
  (void)trailer.TakeU64(&stored_checksum);
  if (util::FnvHashBytes(contents.data(), body_size) != stored_checksum) {
    return util::InvalidArgumentError(
        "checkpoint checksum mismatch (torn write): " + path);
  }

  Reader reader{reinterpret_cast<const unsigned char*>(contents.data()),
                body_size};
  ShardCheckpointImage image;
  uint64_t magic = 0;
  uint32_t cluster_count = 0;
  if (!reader.TakeU64(&magic) || magic != kShardCheckpointMagic ||
      !reader.TakeU32(&image.user_count) ||
      !reader.TakeU64(&image.covered_lsn) || !reader.TakeU32(&cluster_count)) {
    return util::InvalidArgumentError("malformed checkpoint header: " + path);
  }
  image.clusters.reserve(cluster_count);
  for (uint32_t i = 0; i < cluster_count; ++i) {
    ShardCheckpointCluster entry;
    uint32_t member_count = 0;
    if (!reader.TakeU32(&entry.id) || !reader.TakeU32(&member_count)) {
      return util::InvalidArgumentError("malformed checkpoint body: " + path);
    }
    entry.info.members.reserve(member_count);
    for (uint32_t m = 0; m < member_count; ++m) {
      uint32_t member = 0;
      if (!reader.TakeU32(&member)) {
        return util::InvalidArgumentError("malformed checkpoint body: " +
                                          path);
      }
      entry.info.members.push_back(member);
    }
    uint64_t connectivity_bits = 0;
    uint8_t valid = 0;
    uint8_t has_region = 0;
    if (!reader.TakeU64(&connectivity_bits) || !reader.TakeU8(&valid) ||
        !reader.TakeU8(&has_region)) {
      return util::InvalidArgumentError("malformed checkpoint body: " + path);
    }
    entry.info.connectivity = util::DoubleFromBits(connectivity_bits);
    entry.info.valid = valid != 0;
    if (has_region != 0) {
      uint64_t bits[4] = {0, 0, 0, 0};
      if (!reader.TakeU64(&bits[0]) || !reader.TakeU64(&bits[1]) ||
          !reader.TakeU64(&bits[2]) || !reader.TakeU64(&bits[3])) {
        return util::InvalidArgumentError("malformed checkpoint body: " +
                                          path);
      }
      entry.info.region = geo::Rect(
          util::DoubleFromBits(bits[0]), util::DoubleFromBits(bits[1]),
          util::DoubleFromBits(bits[2]), util::DoubleFromBits(bits[3]));
    }
    image.clusters.push_back(std::move(entry));
  }
  if (reader.pos != body_size) {
    return util::InvalidArgumentError("trailing bytes in checkpoint: " + path);
  }
  return image;
}

}  // namespace nela::durability
