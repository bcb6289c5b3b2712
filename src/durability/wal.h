// Write-ahead log of registry mutations, one stream per shard.
//
// The anonymizer's only durable state is the cluster registry: which users
// are clustered together and which cloaked region each cluster published.
// Both mutations (a commit's cluster registrations, SetRegion) are logged
// here *before* they are applied in memory, so a crash at any instant
// leaves the log holding a prefix of the committed history -- recovery
// replays that prefix and nothing else.
//
// On-disk framing, all integers little-endian:
//
//   record  := [u32 payload_len][u64 fnv1a(payload)][payload]
//   payload := [u64 lsn][u8 type][body]
//   body    := kSetRegion: [u32 cluster_id][4 x u64 rect coordinate bits]
//              kShardRegisterBatch: [u32 first_cluster_id]
//              [u32 cluster_count] then per cluster
//              [u32 n][n x u32 member][u64 connectivity_bits][u8 valid];
//              cluster c of the batch has global id first_cluster_id + c
//
// Type values 1 and 3 are retired and must stay unassigned: like any other
// unknown type they fail to decode, so a stream carrying one reads as
// corrupt from that record on.
//
// Appends are serialized on an internal mutex, so a crash can tear at most
// the final record; ReadWal stops at the first length/checksum mismatch and
// reports the torn byte count, and TruncateTornTail cuts the file back to
// its valid prefix so a reopened writer appends after intact records only.
//
// kShardRegisterBatch exists for atomicity, not compactness: one commit of
// the service driver's turnstile may register several clusters at once,
// and a crash tearing the middle of that group must hide the *whole*
// commit -- replaying a partial group would leave the host's cluster
// present but its siblings missing, and a resumed workload would rebuild
// them differently. Batching the group into a single checksummed record
// makes the torn-tail rule ("at most the final record is lost") coincide
// with commit atomicity. With K streams a stream sees only the commits its
// shard coordinated, so replay cannot infer global cluster ids from stream
// position -- the record carries the batch's first global id explicitly.
// One commit lands in exactly ONE stream (the coordinating shard's),
// preserving the torn-tail-equals-commit-atomicity property per stream;
// kSetRegion records always follow their cluster's batch in the same
// stream, so each shard's slice replays from its own files alone.

#ifndef NELA_DURABILITY_WAL_H_
#define NELA_DURABILITY_WAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/registry.h"
#include "geo/rect.h"
#include "graph/wpg.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nela::durability {

enum class WalRecordType : uint8_t {
  kSetRegion = 2,
  kShardRegisterBatch = 4,
};

// One cluster inside a kShardRegisterBatch record.
struct WalClusterImage {
  std::vector<graph::VertexId> members;
  double connectivity = 0.0;
  bool valid = true;
};

struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kShardRegisterBatch;
  // kSetRegion fields.
  cluster::ClusterId cluster_id = 0;
  geo::Rect region;
  // kShardRegisterBatch fields: the clusters of one atomic commit, in
  // registration order; clusters[0] has global id first_cluster_id and the
  // rest of the batch follows consecutively.
  std::vector<WalClusterImage> clusters;
  cluster::ClusterId first_cluster_id = 0;
};

// Serializes the payload (without the [len][checksum] frame).
std::string EncodeWalRecord(const WalRecord& record);

// Parses one payload; rejects truncated or unknown-type payloads.
util::Result<WalRecord> DecodeWalRecord(const std::string& payload);

// Appends framed records to one log file. Thread-safe; each Append is
// flushed before returning so the record survives a process crash (the
// simulated kind this repo tests: the process dies, the file system does
// not).
class WalWriter {
 public:
  // `truncate` starts a fresh log; otherwise appends to an existing one
  // (recovery reopens the log this way after replay).
  static util::Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, bool truncate);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  [[nodiscard]] util::Status Append(const WalRecord& record) EXCLUDES(mu_);

  // Chaos hook for ProcessCrashPoint::kMidWalAppend: writes only the first
  // `keep_bytes` bytes of the framed record -- the torn tail a crash
  // mid-append leaves behind -- and flushes.
  [[nodiscard]] util::Status AppendTorn(const WalRecord& record,
                                        size_t keep_bytes) EXCLUDES(mu_);

  uint64_t records_appended() const EXCLUDES(mu_);

 private:
  explicit WalWriter(std::FILE* file);

  mutable util::Mutex mu_;
  // The FILE handle itself: fwrite/fflush are serialized under mu_ (the
  // destructor's fclose runs race-free by the usual last-owner rule;
  // constructors/destructors are outside the analysis by design).
  std::FILE* file_ GUARDED_BY(mu_);
  uint64_t records_appended_ GUARDED_BY(mu_) = 0;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  // Trailing bytes that do not form an intact record (torn final append).
  uint64_t torn_bytes = 0;
};

// Reads every intact record from `path`. A torn or corrupt tail is normal
// after a crash and is reported, not treated as an error; a missing file
// reads as an empty log.
util::Result<WalReadResult> ReadWal(const std::string& path);

// Truncates `path` back to its longest valid record prefix. Returns the
// number of bytes removed (0 when the log was already intact or missing).
util::Result<uint64_t> TruncateTornTail(const std::string& path);

}  // namespace nela::durability

#endif  // NELA_DURABILITY_WAL_H_
