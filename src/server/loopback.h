// Loopback deployment: an engine, a GraphServer bound to an ephemeral
// localhost port, and a RemoteStore dialed back into it, packaged as one
// Store. This is how the conformance suite and the server bench exercise
// the full network stack in-process — every request really crosses the
// TCP loopback, frames, CRCs and all.
#ifndef LIVEGRAPH_SERVER_LOOPBACK_H_
#define LIVEGRAPH_SERVER_LOOPBACK_H_

#include <memory>

#include "api/store.h"
#include "server/graph_server.h"
#include "server/remote_store.h"

namespace livegraph {

struct ShardOptions;

/// Wraps `engine` behind a loopback GraphServer + RemoteStore. All Store
/// calls go through the wire. Null if the server refuses the engine
/// (Store::SupportsInterleavedSessions), cannot bind, or the client cannot
/// connect. `server_options.port` is overridden to 0
/// (ephemeral) unless explicitly set.
std::unique_ptr<Store> MakeLoopbackStore(
    std::unique_ptr<Store> engine,
    GraphServer::Options server_options = {});

/// The full replication topology over loopback TCP, packaged as one Store
/// (docs/REPLICATION.md): a durable sharded PRIMARY (recovered from
/// `primary_options.dir`, which must be set) serving writes with a
/// replication hub attached, a FOLLOWER subscribed to it (durable under
/// `replica_dir` when non-empty), and a RemoteStore client that sends
/// writes to the primary and read sessions to the follower carrying the
/// read-your-epoch bound. Blocks until the follower has bootstrapped.
/// Null on any bind/connect/bootstrap failure. Caller owns both
/// directories' cleanup.
std::unique_ptr<Store> MakeReplicatedLoopbackStore(
    const ShardOptions& primary_options, const std::string& replica_dir);

}  // namespace livegraph

#endif  // LIVEGRAPH_SERVER_LOOPBACK_H_
