#include "durability/wal.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "util/hash.h"

namespace nela::durability {

namespace {

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

// Cursor over a byte buffer; every Take checks remaining length.
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

// A frame header is [u32 len][u64 checksum].
constexpr size_t kFrameHeaderBytes = 12;
// Registering every user into one cluster is the largest legal record;
// anything bigger is corruption, not data.
constexpr uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

std::string FrameRecord(const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, util::FnvHashBytes(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload;
  PutU64(&payload, record.lsn);
  PutU8(&payload, static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kSetRegion: {
      PutU32(&payload, record.cluster_id);
      PutU64(&payload, util::DoubleBits(record.region.min_x()));
      PutU64(&payload, util::DoubleBits(record.region.min_y()));
      PutU64(&payload, util::DoubleBits(record.region.max_x()));
      PutU64(&payload, util::DoubleBits(record.region.max_y()));
      break;
    }
    case WalRecordType::kShardRegisterBatch: {
      PutU32(&payload, record.first_cluster_id);
      PutU32(&payload, static_cast<uint32_t>(record.clusters.size()));
      for (const WalClusterImage& image : record.clusters) {
        PutU32(&payload, static_cast<uint32_t>(image.members.size()));
        for (graph::VertexId member : image.members) {
          PutU32(&payload, member);
        }
        PutU64(&payload, util::DoubleBits(image.connectivity));
        PutU8(&payload, image.valid ? 1 : 0);
      }
      break;
    }
  }
  return payload;
}

util::Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  Reader reader{reinterpret_cast<const unsigned char*>(payload.data()),
                payload.size()};
  WalRecord record;
  uint8_t type = 0;
  if (!reader.TakeU64(&record.lsn) || !reader.TakeU8(&type)) {
    return util::InvalidArgumentError("WAL payload truncated in header");
  }
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kSetRegion): {
      record.type = WalRecordType::kSetRegion;
      uint64_t bits[4] = {0, 0, 0, 0};
      if (!reader.TakeU32(&record.cluster_id) || !reader.TakeU64(&bits[0]) ||
          !reader.TakeU64(&bits[1]) || !reader.TakeU64(&bits[2]) ||
          !reader.TakeU64(&bits[3])) {
        return util::InvalidArgumentError("WAL set-region payload truncated");
      }
      record.region = geo::Rect(
          util::DoubleFromBits(bits[0]), util::DoubleFromBits(bits[1]),
          util::DoubleFromBits(bits[2]), util::DoubleFromBits(bits[3]));
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kShardRegisterBatch): {
      record.type = WalRecordType::kShardRegisterBatch;
      uint32_t cluster_count = 0;
      if (!reader.TakeU32(&record.first_cluster_id) ||
          !reader.TakeU32(&cluster_count)) {
        return util::InvalidArgumentError(
            "WAL shard batch payload truncated");
      }
      record.clusters.reserve(cluster_count);
      for (uint32_t c = 0; c < cluster_count; ++c) {
        WalClusterImage image;
        uint32_t member_count = 0;
        if (!reader.TakeU32(&member_count)) {
          return util::InvalidArgumentError(
              "WAL shard batch payload truncated");
        }
        image.members.reserve(member_count);
        for (uint32_t i = 0; i < member_count; ++i) {
          uint32_t member = 0;
          if (!reader.TakeU32(&member)) {
            return util::InvalidArgumentError(
                "WAL shard batch member list truncated");
          }
          image.members.push_back(member);
        }
        uint64_t connectivity_bits = 0;
        uint8_t valid = 0;
        if (!reader.TakeU64(&connectivity_bits) || !reader.TakeU8(&valid)) {
          return util::InvalidArgumentError(
              "WAL shard batch payload truncated");
        }
        image.connectivity = util::DoubleFromBits(connectivity_bits);
        image.valid = valid != 0;
        record.clusters.push_back(std::move(image));
      }
      break;
    }
    default:
      return util::InvalidArgumentError("unknown WAL record type");
  }
  if (reader.pos != payload.size()) {
    return util::InvalidArgumentError("trailing bytes in WAL payload");
  }
  return record;
}

WalWriter::WalWriter(std::FILE* file) : file_(file) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

util::Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, bool truncate) {
  std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file == nullptr) {
    return util::UnavailableError("cannot open WAL file: " + path);
  }
  return std::unique_ptr<WalWriter>(new WalWriter(file));
}

util::Status WalWriter::Append(const WalRecord& record) {
  const std::string frame = FrameRecord(EncodeWalRecord(record));
  util::MutexLock lock(mu_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return util::UnavailableError("short write appending WAL record");
  }
  if (std::fflush(file_) != 0) {
    return util::UnavailableError("flush failed appending WAL record");
  }
  ++records_appended_;
  return util::Status();
}

util::Status WalWriter::AppendTorn(const WalRecord& record,
                                   size_t keep_bytes) {
  std::string frame = FrameRecord(EncodeWalRecord(record));
  if (keep_bytes < frame.size()) frame.resize(keep_bytes);
  util::MutexLock lock(mu_);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return util::UnavailableError("short write appending torn WAL record");
  }
  if (std::fflush(file_) != 0) {
    return util::UnavailableError("flush failed appending torn WAL record");
  }
  return util::Status();
}

uint64_t WalWriter::records_appended() const {
  util::MutexLock lock(mu_);
  return records_appended_;
}

namespace {

util::Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return util::NotFoundError("cannot open file: " + path);
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
    return util::UnavailableError("read error on file: " + path);
  }
  return contents;
}

// Scans the framed log in `bytes`; intact records go to `result`, and the
// offset of the first torn/corrupt frame comes back in `valid_bytes`.
void ScanWal(const std::string& bytes, WalReadResult* result,
             size_t* valid_bytes) {
  Reader reader{reinterpret_cast<const unsigned char*>(bytes.data()),
                bytes.size()};
  *valid_bytes = 0;
  while (true) {
    const size_t frame_start = reader.pos;
    uint32_t payload_len = 0;
    uint64_t checksum = 0;
    if (!reader.TakeU32(&payload_len) || !reader.TakeU64(&checksum) ||
        payload_len > kMaxPayloadBytes ||
        reader.pos + payload_len > reader.size) {
      reader.pos = frame_start;
      break;
    }
    const std::string payload = bytes.substr(reader.pos, payload_len);
    reader.pos += payload_len;
    if (util::FnvHashBytes(payload.data(), payload.size()) != checksum) {
      reader.pos = frame_start;
      break;
    }
    auto record = DecodeWalRecord(payload);
    if (!record.ok()) {
      reader.pos = frame_start;
      break;
    }
    result->records.push_back(std::move(record).value());
    *valid_bytes = reader.pos;
  }
  result->torn_bytes = bytes.size() - *valid_bytes;
}

}  // namespace

util::Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  if (!std::filesystem::exists(path)) return result;  // empty log
  auto contents = ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  size_t valid_bytes = 0;
  ScanWal(contents.value(), &result, &valid_bytes);
  return result;
}

util::Result<uint64_t> TruncateTornTail(const std::string& path) {
  if (!std::filesystem::exists(path)) return uint64_t{0};
  auto contents = ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  WalReadResult scanned;
  size_t valid_bytes = 0;
  ScanWal(contents.value(), &scanned, &valid_bytes);
  if (scanned.torn_bytes == 0) return uint64_t{0};
  std::error_code error;
  std::filesystem::resize_file(path, valid_bytes, error);
  if (error) {
    return util::UnavailableError("cannot truncate torn WAL tail: " +
                                  error.message());
  }
  return scanned.torn_bytes;
}

}  // namespace nela::durability
