// Frame codecs for the WAL-shipping replication stream (DESIGN.md §13).
// Replication rides the service's length-prefixed TCP protocol: a replica
// opens an ordinary connection, sends kSubscribe, and the connection
// becomes a one-way stream of kSubscribeOk / kSnapshot* / kWalFrame /
// kWalHeartbeat frames with kReplicaAck frames flowing back.
#ifndef GES_REPLICATION_REPLICATION_WIRE_H_
#define GES_REPLICATION_REPLICATION_WIRE_H_

#include <string>
#include <vector>

#include "service/protocol.h"
#include "storage/wal.h"

namespace ges::replication {

// Encodes one committed transaction as a kWalFrame payload. `records` may
// include the kBeginTx / kCommitTx markers; they are stripped — the frame
// itself delimits the transaction and carries the commit version.
std::string EncodeWalFrame(Version commit_version,
                           const std::vector<WalRecord>& records);

// Decodes a kWalFrame payload; `in` must be positioned after the type
// byte. Returns false on malformed input.
bool DecodeWalFrame(WireReader* in, WalTxn* out);

std::string EncodeSubscribe(Version from, const std::string& name);
std::string EncodeHeartbeat(Version primary_version);
std::string EncodeAck(Version applied_version);

}  // namespace ges::replication

#endif  // GES_REPLICATION_REPLICATION_WIRE_H_
