#include "concurrency/session_table.hpp"

namespace srpc {

SessionState& SessionTable::open(SessionId id) {
  auto it = states_.find(id);
  if (it == states_.end()) {
    auto state = spare_ != nullptr ? std::move(spare_) : std::make_unique<SessionState>();
    state->id = id;
    state->pages.owner = id;
    it = states_.emplace(id, std::move(state)).first;
  }
  return *it->second;
}

SessionState* SessionTable::find(SessionId id) {
  auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second.get();
}

const SessionState* SessionTable::find(SessionId id) const {
  auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second.get();
}

bool SessionTable::close(SessionId id) {
  auto it = states_.find(id);
  if (it == states_.end()) return false;
  spare_ = std::move(it->second);
  spare_->clear();
  states_.erase(it);
  return true;
}

void SessionState::clear() {
  local = false;
  status = SessionStatus::kActive;
  updates.clear();
  home_twins.clear();
  ship.clear();
  ship_epoch = 0;
  span = SpanRecorder::kNoSpan;
  touched.clear();
  memory_ops = RemoteAllocator{};
}

}  // namespace srpc
