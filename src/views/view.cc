#include "views/view.h"

#include "util/check.h"

namespace cspdb {

GraphDb ExtensionGraph(const ViewSetting& setting,
                       const ViewInstance& instance) {
  CSPDB_CHECK(instance.ext.size() == setting.views.size());
  GraphDb db(instance.num_objects, static_cast<int>(setting.views.size()));
  for (std::size_t i = 0; i < instance.ext.size(); ++i) {
    for (const auto& [x, y] : instance.ext[i]) {
      db.AddEdge(x, static_cast<int>(i), y);
    }
  }
  return db;
}

}  // namespace cspdb
