// Social-network feed service: the workload class the paper's intro
// motivates (Facebook-style posts/friendships, TAO-like read-mostly
// access). Demonstrates:
//   * concurrent writers (friend requests, posts) with automatic retry,
//   * time-ordered feeds straight from the TEL's newest-first scans,
//   * durable operation with WAL + recovery.
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/graph.h"
#include "core/transaction.h"
#include "shard/sharded_store.h"

namespace {

constexpr livegraph::label_t kFriend = 0;
constexpr livegraph::label_t kPosted = 1;

/// Retries a write transaction until it commits (conflicts are expected
/// under concurrency; snapshot isolation makes retry safe).
template <typename Fn>
bool WithRetry(livegraph::Graph& graph, const Fn& fn) {
  using namespace livegraph;
  for (int attempt = 0; attempt < 64; ++attempt) {
    Transaction txn = graph.BeginTransaction();
    if (!fn(txn)) continue;
    if (txn.Commit() == Status::kOk) return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace livegraph;
  std::string dir = "/tmp/livegraph_social_example";
  std::filesystem::remove_all(dir);

  // A one-shard durable directory: <dir>/MANIFEST, <dir>/shard0/wal and
  // <dir>/shard0/checkpoint/. Opening it is recovering it (empty here).
  ShardOptions options;
  options.shards = 1;
  options.dir = dir;
  options.graph.region_reserve = size_t{1} << 30;
  options.graph.max_vertices = 1 << 20;
  options.graph.fsync_wal = false;  // demo speed; enable for real durability

  vertex_t users[4];
  size_t ada_posts = 0;
  {
    std::unique_ptr<ShardedStore> store = ShardedStore::Recover(options);
    Graph& graph = store->shard(0);
    // Register users.
    {
      Transaction txn = graph.BeginTransaction();
      const char* names[] = {"ada", "grace", "edsger", "barbara"};
      for (int i = 0; i < 4; ++i) users[i] = txn.AddVertex(names[i]);
      if (txn.Commit() != Status::kOk) return 1;
    }
    // Concurrent activity: friendships and posts from several threads.
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&, w] {
        for (int i = 0; i < 25; ++i) {
          vertex_t me = users[w];
          vertex_t other = users[(w + i) % 4];
          if (other != me) {
            WithRetry(graph, [&](Transaction& txn) {
              // Mutual friendship edge with a timestamp payload.
              std::string when = "t=" + std::to_string(w * 100 + i);
              return txn.AddEdge(me, kFriend, other, when) == Status::kOk &&
                     txn.AddEdge(other, kFriend, me, when) == Status::kOk;
            });
          }
          WithRetry(graph, [&](Transaction& txn) {
            vertex_t post = txn.AddVertex(
                "post by user " + std::to_string(w) + " #" +
                std::to_string(i));
            return txn.AddEdge(me, kPosted, post) == Status::kOk;
          });
        }
      });
    }
    for (auto& t : workers) t.join();

    // Build ada's feed: newest 5 posts of each friend, zero sorting work —
    // the TEL already yields newest-first.
    ReadTransaction snapshot = graph.BeginReadOnlyTransaction();
    std::printf("ada's friends and their latest posts:\n");
    for (EdgeIterator f = snapshot.GetEdges(users[0], kFriend); f.Valid();
         f.Next()) {
      std::printf("  %s:\n",
                  std::string(*snapshot.GetVertex(f.DstId())).c_str());
      int shown = 0;
      for (EdgeIterator p = snapshot.GetEdges(f.DstId(), kPosted);
           p.Valid() && shown < 5; p.Next(), ++shown) {
        std::printf("    - %s\n",
                    std::string(*snapshot.GetVertex(p.DstId())).c_str());
      }
    }
    ada_posts = snapshot.CountEdges(users[0], kPosted);
    std::printf("total posts by ada: %zu\n", ada_posts);
  }  // graph closed ("crash")

  // Recover from the WAL and verify the feed survived.
  auto recovered = ShardedStore::Recover(options);
  ReadTransaction snapshot = recovered->shard(0).BeginReadOnlyTransaction();
  std::printf("after recovery: ada still has %zu posts, %zu friends\n",
              snapshot.CountEdges(users[0], kPosted),
              snapshot.CountEdges(users[0], kFriend));
  std::filesystem::remove_all(dir);
  if (snapshot.CountEdges(users[0], kPosted) != ada_posts) return 1;
  std::printf("social_network OK\n");
  return 0;
}
