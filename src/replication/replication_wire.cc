#include "replication/replication_wire.h"

namespace ges::replication {

using service::MsgType;

std::string EncodeWalFrame(Version commit_version,
                           const std::vector<WalRecord>& records) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kWalFrame));
  b.PutU64(commit_version);
  uint32_t n = 0;
  for (const WalRecord& r : records) {
    if (r.type != WalRecordType::kBeginTx &&
        r.type != WalRecordType::kCommitTx) {
      ++n;
    }
  }
  b.PutU32(n);
  for (const WalRecord& r : records) {
    if (r.type == WalRecordType::kBeginTx ||
        r.type == WalRecordType::kCommitTx) {
      continue;
    }
    b.PutString(EncodeWalRecord(r));
  }
  return b.Take();
}

bool DecodeWalFrame(WireReader* in, WalTxn* out) {
  *out = WalTxn{};
  out->commit_version = in->GetU64();
  out->txid = out->commit_version;
  out->committed = true;
  uint32_t n = in->GetU32();
  if (n > in->remaining() / 4) return false;  // each record: u32 length + body
  out->records.reserve(n);
  for (uint32_t i = 0; in->ok() && i < n; ++i) {
    WalRecord rec;
    if (!DecodeWalRecord(in->GetBytes(in->GetU32()), &rec)) return false;
    out->records.push_back(std::move(rec));
  }
  return in->ok() && out->commit_version != 0;
}

std::string EncodeSubscribe(Version from, const std::string& name) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kSubscribe));
  b.PutU32(service::kReplicationProtocolVersion);
  b.PutU64(from);
  b.PutString(name);
  return b.Take();
}

std::string EncodeHeartbeat(Version primary_version) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kWalHeartbeat));
  b.PutU64(primary_version);
  return b.Take();
}

std::string EncodeAck(Version applied_version) {
  WireBuf b;
  b.PutU8(static_cast<uint8_t>(MsgType::kReplicaAck));
  b.PutU64(applied_version);
  return b.Take();
}

}  // namespace ges::replication
