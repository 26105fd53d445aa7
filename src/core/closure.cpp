#include "core/closure.hpp"

#include <deque>
#include <unordered_set>

namespace srpc {

Result<PackedClosure> ClosurePacker::pack(std::span<const std::uint64_t> roots,
                                          std::uint64_t budget_bytes,
                                          bool require_roots) const {
  PackedClosure out;
  std::deque<std::uint64_t> queue;
  std::unordered_set<std::uint64_t> enqueued;
  std::unordered_set<LongPointer, LongPointerHash> included;

  // Whether one more datum with plan `plan` stays within the budget.
  auto fits = [&](const Layout& plan) {
    return out.estimated_wire_bytes + graph_object_wire_size(plan) <= budget_bytes;
  };
  // Adds one readable datum to the result and queues its pointer targets.
  auto add_datum = [&](const LocalDataView::DatumView& datum, const Layout& plan) {
    included.insert(datum.id);
    out.estimated_wire_bytes += graph_object_wire_size(plan);
    out.groups[datum.id.space].push_back(
        GraphObjectRef{datum.id.address, datum.id.type, datum.image});
    ++out.objects;
    plan.for_each_pointer(arch_, datum.image, [&](std::uint64_t target, TypeId) {
      if (enqueued.insert(target).second) queue.push_back(target);
    });
  };

  // Roots first. For fetch service (require_roots) they transfer
  // unconditionally — they are the data the receiver asked for. For
  // argument/result closures they count against the budget like everything
  // else, so a budget of zero sends pure pointers: the receiving page
  // "contains no data at this time" (paper §3.2, Fig. 2).
  for (const std::uint64_t root : roots) {
    if (!enqueued.insert(root).second) continue;
    auto view = view_.view_local(root);
    if (!view) {
      if (require_roots) return view.status();
      continue;
    }
    if (view.value().image == nullptr) {
      if (require_roots) {
        return failed_precondition("closure root is not locally readable: " +
                                   view.value().id.to_string());
      }
      continue;  // pass-through pointer: the receiver fetches from its home
    }
    if (included.contains(view.value().id)) continue;
    auto plan = codec_.layouts.layout_of(arch_, view.value().id.type);
    if (!plan) return plan.status();
    if (!require_roots && !fits(*plan.value())) continue;
    add_datum(view.value(), *plan.value());
  }

  // Bounded traversal of the children (the eagerness knob, §3.3).
  while (!queue.empty()) {
    std::uint64_t addr = 0;
    if (order_ == TraversalOrder::kBreadthFirst) {
      addr = queue.front();
      queue.pop_front();
    } else {
      addr = queue.back();
      queue.pop_back();
    }
    auto view = view_.view_local(addr);
    if (!view || view.value().image == nullptr) continue;  // frontier
    if (included.contains(view.value().id)) continue;
    auto plan = codec_.layouts.layout_of(arch_, view.value().id.type);
    if (!plan) return plan.status();
    if (!fits(*plan.value())) break;  // budget spent: the rest stays frontier
    add_datum(view.value(), *plan.value());
  }
  return out;
}

}  // namespace srpc
