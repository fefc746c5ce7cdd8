#include "daos/engine.h"

#include <algorithm>
#include <stdexcept>

#include "vos/extent_tree.h"

namespace daosim::daos {

Engine::Engine(hw::Cluster& cluster, hw::NodeId node, const DaosConfig& cfg)
    : cluster_(&cluster), node_(node), cfg_(&cfg) {
  hw::Node& n = cluster.node(node);
  if (static_cast<int>(n.driveCount()) < cfg.targets_per_engine) {
    throw std::invalid_argument(
        "Engine: node has fewer NVMe devices than targets_per_engine");
  }
  targets_.reserve(static_cast<std::size_t>(cfg.targets_per_engine));
  for (int i = 0; i < cfg.targets_per_engine; ++i) {
    // Targets schedule on the *node's* simulation: the owning shard's on a
    // sharded cluster, the one global simulation serially (identical there).
    targets_.push_back(std::make_unique<Target>(
        n.sim(),
        "engine" + std::to_string(node) + ".tgt" + std::to_string(i),
        n.drive(static_cast<std::size_t>(i)), cfg.retain_data));
    targets_.back()->xstream().setTracePid(node);
  }
}

sim::Task<std::uint64_t> Engine::valuePut(int tgt, ContId c, const ObjectId& o,
                                          std::string dkey, std::string akey,
                                          Payload value, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  // Metadata lands in DRAM (VOS tree) but is made durable via a WAL record
  // on the target's NVMe (md-on-ssd mode, as deployed in the paper).
  co_await t.device().write(std::max<std::uint64_t>(
      cfg_->engine.wal_bytes, value.size()), op);
  t.store().valuePut(c, o, dkey, akey, std::move(value));
  co_return 0;
}

sim::Task<Engine::GetResult> Engine::valueGet(int tgt, ContId c,
                                              const ObjectId& o,
                                              std::string dkey,
                                              std::string akey, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  GetResult r;
  // VOS metadata is DRAM-resident: no device I/O on the get path.
  if (const Payload* p = t.store().valueGet(c, o, dkey, akey)) {
    r.value = *p;
    r.found = true;
  }
  co_return r;
}

sim::Task<std::pair<Engine::GetResult, std::uint64_t>> Engine::valueGetSized(
    int tgt, ContId c, const ObjectId& o, std::string dkey, std::string akey,
    obs::OpId op) {
  GetResult g =
      co_await valueGet(tgt, c, o, std::move(dkey), std::move(akey), op);
  const std::uint64_t bytes = g.value.size();
  co_return std::pair(std::move(g), bytes);
}

sim::Task<std::uint64_t> Engine::valueRemove(int tgt, ContId c,
                                             const ObjectId& o,
                                             std::string dkey,
                                             std::string akey, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  t.store().valueRemove(c, o, dkey, akey);
  co_return 0;
}

sim::Task<std::uint64_t> Engine::extentWrite(int tgt, ContId c,
                                             const ObjectId& o,
                                             std::string dkey,
                                             std::string akey,
                                             std::uint64_t offset,
                                             Payload data, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu, op);
  co_await t.device().write(data.size(), op);
  t.store().extentWrite(c, o, dkey, akey, offset, std::move(data));
  co_return 0;
}

sim::Task<Payload> Engine::extentRead(int tgt, ContId c, const ObjectId& o,
                                      std::string dkey, std::string akey,
                                      std::uint64_t offset,
                                      std::uint64_t length, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu, op);
  auto r = t.store().extentRead(c, o, dkey, akey, offset, length);
  // Only bytes that exist are read from flash; holes cost nothing.
  if (r.bytes_found > 0) co_await t.device().read(r.bytes_found, op);
  co_return std::move(r.data);
}

sim::Task<std::pair<Payload, std::uint64_t>> Engine::extentReadSized(
    int tgt, ContId c, const ObjectId& o, std::string dkey, std::string akey,
    std::uint64_t offset, std::uint64_t length, obs::OpId op) {
  Payload p = co_await extentRead(tgt, c, o, std::move(dkey), std::move(akey),
                                  offset, length, op);
  const std::uint64_t bytes = p.size();
  co_return std::pair(std::move(p), bytes);
}

sim::Task<std::uint64_t> Engine::arrayShardEnd(int tgt, ContId c,
                                               const ObjectId& o,
                                               std::uint64_t chunk_size,
                                               obs::OpId op) {
  Target& t = target(tgt);
  // A size probe walks the object's dkey tree in DRAM; slightly costlier
  // than a point lookup.
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  std::uint64_t end = 0;
  t.store().forEachRecord(c, o, [&](const vos::TargetStore::RecordView& v) {
    // Array chunks are 8-byte dkeys holding an extent tree at akey "0".
    if (v.dkey->size() != 8 || *v.akey != "0" || v.tree == nullptr) return;
    const std::uint64_t in_chunk = v.tree->end();
    if (in_chunk > 0) {
      end = std::max(end, vos::dkeyU64(*v.dkey) * chunk_size + in_chunk);
    }
  });
  co_return end;
}

sim::Task<std::uint64_t> Engine::arrayShardTruncate(int tgt, ContId c,
                                                    const ObjectId& o,
                                                    std::uint64_t chunk_size,
                                                    std::uint64_t new_size,
                                                    obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  for (const auto& dkey : t.store().listDkeys(c, o)) {
    if (dkey.size() != 8) continue;
    const std::uint64_t base = vos::dkeyU64(dkey) * chunk_size;
    if (base >= new_size) {
      t.store().punchDkey(c, o, dkey);
    } else if (base + chunk_size > new_size) {
      t.store().extentTruncate(c, o, dkey, "0", new_size - base);
    }
  }
  co_return 0;
}

sim::Task<std::vector<std::string>> Engine::listDkeys(int tgt, ContId c,
                                                      const ObjectId& o,
                                                      obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + 2 * cfg_->engine.kv_cpu,
                            op);
  co_return t.store().listDkeys(c, o);
}

sim::Task<std::uint64_t> Engine::punchObject(int tgt, ContId c,
                                             const ObjectId& o, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  t.store().punchObject(c, o);
  co_return 0;
}

sim::Task<std::uint64_t> Engine::punchDkey(int tgt, ContId c,
                                           const ObjectId& o,
                                           std::string dkey, obs::OpId op) {
  Target& t = target(tgt);
  co_await t.xstream().exec(cfg_->engine.rpc_cpu + cfg_->engine.kv_cpu, op);
  co_await t.device().write(cfg_->engine.wal_bytes, op);
  t.store().punchDkey(c, o, dkey);
  co_return 0;
}

}  // namespace daosim::daos
