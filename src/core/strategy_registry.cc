#include "core/strategy_registry.h"

#include "core/engine.h"
#include "dist/cluster.h"
#include "exec/bigjoin.h"
#include "exec/binary_join.h"

namespace adj::core {

StrategyRegistry& StrategyRegistry::Global() {
  static StrategyRegistry* kGlobal = [] {
    auto* registry = new StrategyRegistry();
    registry->RegisterPaperStrategies();
    return registry;
  }();
  return *kGlobal;
}

void StrategyRegistry::RegisterPaperStrategies() {
  strategies_[StrategyName(Strategy::kCoOpt)] =
      [](Engine& engine, const query::Query& q, const EngineOptions& options) {
        return engine.RunCoOpt(q, options);
      };
  strategies_[StrategyName(Strategy::kCommFirst)] =
      [](Engine& engine, const query::Query& q, const EngineOptions& options) {
        return engine.RunCommFirst(q, options, /*cached=*/false);
      };
  strategies_[StrategyName(Strategy::kCachedCommFirst)] =
      [](Engine& engine, const query::Query& q, const EngineOptions& options) {
        return engine.RunCommFirst(q, options, /*cached=*/true);
      };
  strategies_[StrategyName(Strategy::kBinaryJoin)] =
      [](Engine& engine, const query::Query& q, const EngineOptions& options) {
        dist::Cluster cluster(options.cluster);
        return exec::RunBinaryJoin(q, engine.db(), &cluster, options.limits);
      };
  strategies_[StrategyName(Strategy::kBigJoin)] =
      [](Engine& engine, const query::Query& q,
         const EngineOptions& options) -> StatusOr<exec::RunReport> {
        StatusOr<query::AttributeOrder> order =
            engine.SelectCommFirstOrder(q, options.cluster);
        if (!order.ok()) return order.status();
        dist::Cluster cluster(options.cluster);
        return exec::RunBigJoin(q, engine.db(), *order, &cluster,
                                options.limits);
      };
}

Status StrategyRegistry::Register(const std::string& name, StrategyFn fn) {
  if (name.empty()) return Status::InvalidArgument("empty strategy name");
  if (fn == nullptr) {
    return Status::InvalidArgument("null strategy function: " + name);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (strategies_.count(name) > 0) {
    return Status::InvalidArgument("strategy already registered: " + name);
  }
  strategies_[name] = std::move(fn);
  return Status::OK();
}

StatusOr<StrategyFn> StrategyRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = strategies_.find(name);
  if (it == strategies_.end()) {
    std::string known;
    for (const auto& [registered, fn] : strategies_) {
      if (!known.empty()) known += ", ";
      known += registered;
    }
    return Status::NotFound("unknown strategy: " + name +
                            " (registered: " + known + ")");
  }
  return it->second;
}

bool StrategyRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return strategies_.count(name) > 0;
}

std::vector<std::string> StrategyRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(strategies_.size());
  for (const auto& [name, fn] : strategies_) names.push_back(name);
  return names;
}

}  // namespace adj::core
