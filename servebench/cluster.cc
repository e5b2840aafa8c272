#include "cluster.h"

#include <utility>

namespace servebench {

namespace service = cspdb::service;
namespace net = cspdb::net;

namespace {

service::ServiceOptions NodeServiceOptions(cspdb::exec::ThreadPool* pool) {
  service::ServiceOptions options;
  options.pool = pool;
  options.cache.max_bytes = kCacheBytesPerNode;
  return options;
}

}  // namespace

Node::Node()
    : pool(kPoolThreadsPerNode),
      service(std::make_unique<service::CspdbService>(
          NodeServiceOptions(&pool))) {}

std::vector<net::PeerId> RingMembers(const std::array<int, 2>& ports) {
  return {{"127.0.0.1:" + std::to_string(ports[0])},
          {"127.0.0.1:" + std::to_string(ports[1])}};
}

std::unique_ptr<Cluster> Cluster::Start(const std::array<int, 2>& ports,
                                        std::string* error) {
  std::unique_ptr<Cluster> cluster(new Cluster());
  const std::vector<net::PeerId> members = RingMembers(ports);
  for (int i = 0; i < 2; ++i) {
    cluster->addresses_[i] = members[i].id;
    auto node = std::make_unique<Node>();
    node->router = std::make_unique<net::ShardRouter>(
        node->service.get(), cluster->addresses_[i], members);
    net::ServerOptions options;
    options.listen_address = cluster->addresses_[i];
    options.pool = &node->pool;
    node->server =
        std::make_unique<net::NetServer>(node->service.get(), options);
    node->server->set_router(node->router.get());
    if (!node->server->Start(error)) return nullptr;
    cluster->nodes_.push_back(std::move(node));
  }
  return cluster;
}

Cluster::~Cluster() {
  for (auto& node : nodes_) node->server->Shutdown();
}

}  // namespace servebench
