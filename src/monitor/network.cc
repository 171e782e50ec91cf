#include "monitor/network.h"

#include <map>
#include <vector>

#include "util/string_util.h"

namespace dc::monitor {

namespace {

std::string WindowLabel(const FactoryInput& in) {
  if (!in.window.has_value()) return "per-batch";
  return in.window->ToString();
}

}  // namespace

std::string ExportDot(Engine& engine) {
  std::string out;
  out += "digraph datacell {\n";
  out += "  rankdir=LR;\n";
  out += "  node [fontname=\"Helvetica\"];\n";

  for (const std::string& s : engine.StreamNames()) {
    auto stats = engine.StreamStats(s);
    const uint64_t resident = stats.ok() ? stats->resident_rows : 0;
    out += StrFormat(
        "  \"recv:%s\" [shape=cds, label=\"receptor\\n%s\"];\n", s.c_str(),
        s.c_str());
    out += StrFormat(
        "  \"basket:%s\" [shape=box3d, style=filled, fillcolor=lightyellow,"
        " label=\"basket %s\\n%llu resident\"];\n",
        s.c_str(), s.c_str(), static_cast<unsigned long long>(resident));
    out += StrFormat("  \"recv:%s\" -> \"basket:%s\";\n", s.c_str(),
                     s.c_str());
  }

  // Shared window nodes (docs/SHARING.md): the per-prefix partial-build
  // stage that tier-P queries hang their merge tails off. Rendered as a
  // distinct box between the stream basket and the subscribing factories.
  const SharingStats sharing = engine.GetSharingStats();
  for (const SharedNodeStats& n : sharing.nodes) {
    out += StrFormat(
        "  \"node:%s\" [shape=octagon, style=filled, fillcolor=lightgreen,"
        " label=\"shared window %s\\n%d subscribers, %llu builds\"];\n",
        n.label.c_str(), n.label.c_str(), n.subscribers,
        static_cast<unsigned long long>(n.partial_builds));
    out += StrFormat("  \"basket:%s\" -> \"node:%s\";\n", n.stream.c_str(),
                     n.label.c_str());
  }

  // Group queries by physical factory so tier-F aliases render as ONE
  // factory box fanning out to per-query emitters, not as duplicates.
  std::vector<int> factory_order;
  std::map<int, std::vector<const ContinuousQueryInfo*>> by_factory;
  const std::vector<ContinuousQueryInfo> queries = engine.Queries();
  for (const ContinuousQueryInfo& q : queries) {
    FactoryPtr f = engine.GetFactory(q.id);
    const int fid = f == nullptr ? q.id : f->id();
    if (by_factory.find(fid) == by_factory.end()) {
      factory_order.push_back(fid);
    }
    by_factory[fid].push_back(&q);
  }

  for (const int fid : factory_order) {
    const std::vector<const ContinuousQueryInfo*>& group = by_factory[fid];
    const ContinuousQueryInfo& rep = *group.front();
    std::string names;
    for (const ContinuousQueryInfo* q : group) {
      if (!names.empty()) names += " | ";
      names += q->name;
    }
    const std::string shared_tag =
        group.size() > 1 ? StrFormat("\\nshared x%zu", group.size()) : "";
    out += StrFormat(
        "  \"factory:%d\" [shape=component, style=filled,"
        " fillcolor=%s, label=\"%s\\n%s, %llu emissions%s%s\"];\n",
        fid, rep.factory.paused ? "lightgrey" : "lightblue", names.c_str(),
        ExecModeName(rep.mode),
        static_cast<unsigned long long>(rep.factory.emissions),
        rep.factory.paused ? " (paused)" : "", shared_tag.c_str());
    for (const std::string& s : rep.input_streams) {
      if (!rep.shared_node.empty()) {
        // The shared node owns the basket reader; the factory is a merge
        // tail consuming its partials.
        out += StrFormat(
            "  \"node:%s\" -> \"factory:%d\" [label=\"partials\"];\n",
            rep.shared_node.c_str(), fid);
      } else {
        out += StrFormat("  \"basket:%s\" -> \"factory:%d\";\n", s.c_str(),
                         fid);
      }
    }
    for (const std::string& t : rep.input_tables) {
      out += StrFormat(
          "  \"table:%s\" [shape=cylinder, label=\"table %s\"];\n",
          t.c_str(), t.c_str());
      out += StrFormat("  \"table:%s\" -> \"factory:%d\" [style=dashed];\n",
                       t.c_str(), fid);
    }
    for (const ContinuousQueryInfo* q : group) {
      out += StrFormat(
          "  \"emit:%d\" [shape=cds, label=\"emitter %s\\n%llu rows\"];\n",
          q->id, q->name.c_str(),
          static_cast<unsigned long long>(q->emitter.rows));
      // The factory queues every emission on each attached emitter;
      // aliased subscribers get a marked edge, the owning query the plain
      // one.
      out += q->id == fid
                 ? StrFormat("  \"factory:%d\" -> \"emit:%d\";\n", fid,
                             q->id)
                 : StrFormat("  \"factory:%d\" -> \"emit:%d\""
                             " [style=dashed, label=\"alias\"];\n",
                             fid, q->id);
    }
  }
  out += "}\n";
  return out;
}

std::string RenderNetworkTable(Engine& engine) {
  std::string out;
  out += StrFormat("%-10s %-12s %-24s %-12s %10s %10s %12s  %-18s\n",
                   "query", "mode", "inputs", "window", "emissions",
                   "tuples", "cached(B)", "sharing");
  out += std::string(116, '-') + "\n";
  for (const ContinuousQueryInfo& q : engine.Queries()) {
    std::string inputs;
    std::string window = "-";
    FactoryPtr f = engine.GetFactory(q.id);
    for (const FactoryInput& in : f->inputs()) {
      if (!inputs.empty()) inputs += "+";
      if (in.is_stream) {
        inputs += in.basket->name();
        window = WindowLabel(in);
      } else {
        inputs += in.table->name();
      }
    }
    out += StrFormat("%-10s %-12s %-24s %-12s %10llu %10llu %12zu  %-18s\n",
                     q.name.c_str(), ExecModeName(q.mode), inputs.c_str(),
                     window.c_str(),
                     static_cast<unsigned long long>(q.factory.emissions),
                     static_cast<unsigned long long>(q.factory.tuples_out),
                     q.factory.cached_bytes,
                     q.sharing.empty() ? "-" : q.sharing.c_str());
  }
  return out;
}

std::string RenderTupleLocations(Engine& engine) {
  std::string out;
  out += "baskets:\n";
  for (const std::string& s : engine.StreamNames()) {
    auto stats = engine.StreamStats(s);
    if (!stats.ok()) continue;
    out += StrFormat(
        "  %-16s resident=%llu appended=%llu dropped=%llu bytes=%zu "
        "watermark=%lld\n",
        s.c_str(), static_cast<unsigned long long>(stats->resident_rows),
        static_cast<unsigned long long>(stats->appended_total),
        static_cast<unsigned long long>(stats->dropped_total),
        stats->memory_bytes, static_cast<long long>(stats->event_watermark));
  }
  out += "factories (cached intermediates):\n";
  for (const ContinuousQueryInfo& q : engine.Queries()) {
    out += StrFormat(
        "  %-16s partials=%llu bytes=%zu fragments_computed=%llu "
        "in=%llu out=%llu%s\n",
        q.name.c_str(),
        static_cast<unsigned long long>(q.factory.cached_partials),
        q.factory.cached_bytes,
        static_cast<unsigned long long>(q.factory.fragments_computed),
        static_cast<unsigned long long>(q.factory.tuples_in),
        static_cast<unsigned long long>(q.factory.tuples_out),
        q.factory.paused ? " [paused]" : "");
  }
  return out;
}

}  // namespace dc::monitor
