#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "common/logging.hpp"
#include "core/graph_payload.hpp"
#include "xdr/xdr_decoder.hpp"
#include "xdr/xdr_encoder.hpp"

namespace srpc {

// ---------------------------------------------------------------------------
// Wire payload layouts (all sections XDR):
//   CALL        proc string | modified-set | closures | marshalled args
//   RETURN      modified-set | closures | marshalled results
//   FETCH       budget u64 | wide u32 | base u64 | count u32
//               | count x (delta u32 | addr u64)     (addresses only: the
//               home resolves types from its own heap; compactness matters
//               because every fault re-requests a whole page of entries)
//   FETCH_REPLY count u32 | count x graph payload
//   ALLOC_BATCH nalloc u32 | nalloc x {provisional u64, type u32}
//               | nfree u32 | nfree x {addr u64}
//   ALLOC_REPLY n u32 | n x {provisional u64, real u64}
//   WB_PREPARE  epoch u64 | [manifest] | modified-set  (acked empty; staged,
//               not applied; manifest = n u32 | n x addr u64, multi-session)
//   WB_COMMIT   epoch u64               (acked empty; applies the stage)
//   WB_ABORT    epoch u64               (acked empty; discards the stage)
//   INVALIDATE  empty or aborted u32    (acked empty; empty = normal end)
//   PING        empty                   (PONG, empty)
//   DEREF       long pointer
//   DEREF_REPLY canonical value bytes
//   ERROR       code u32 | message string
// where closures are "count u32 | count x graph payload" sections and
// modified-set is either that same legacy layout or the MODIFIED_DELTA
// format (rpc/wire.hpp), auto-detected by its leading magic.
// ---------------------------------------------------------------------------

Runtime::Runtime(SpaceId self, std::string name, const ArchModel& arch,
                 TypeRegistry& registry, const LayoutEngine& layouts,
                 HostTypeMap& host_types, Transport& transport, SimNetwork* sim,
                 CacheOptions cache_options,
                 std::function<std::vector<SpaceId>()> directory,
                 TimeoutConfig timeouts)
    : self_(self),
      name_(std::move(name)),
      arch_(arch),
      registry_(registry),
      layouts_(layouts),
      codec_{registry, layouts},
      host_types_(host_types),
      sim_(sim),
      directory_(std::move(directory)),
      endpoint_(self, transport, mailbox_),
      heap_(registry, layouts, arch, self),
      cache_(registry, layouts, arch, self, cache_options, *this),
      packer_(codec_, arch, *this),
      timeouts_(timeouts),
      telemetry_(self, name_) {
  full_dispatcher_ = [this](Message msg) { return dispatch(std::move(msg)); };
  if (sim_ != nullptr) {
    telemetry_.set_clock([this] { return vnow_ns(); });
    // The simulated wire stamps arrival timestamps instead of charging the
    // whole message cost at send (that is what lets pipelined requests
    // overlap their latency); the receive edge lands here, when the worker
    // dequeues the message.
    endpoint_.set_delivery_hook([this](const Message& msg) {
      if (msg.arrive_ns != 0) sim_->clock().advance_to(msg.arrive_ns);
    });
  }
  endpoint_.set_telemetry(&telemetry_);
  cache_.set_telemetry(&telemetry_);
}

Status Runtime::init() { return cache_.init(); }

// ---------------------------------------------------------------------------
// Zero-copy shm payload lane (PROTOCOL.md "Zero-copy payload lane")
// ---------------------------------------------------------------------------

void Runtime::set_shm_arena(ShmArena* arena) {
  shm_arena_ = arena;
  if (arena == nullptr) {
    endpoint_.set_payload_lane({});
    return;
  }
  endpoint_.set_payload_lane([this](Message& msg) { elevate_payload(msg); });
}

void Runtime::elevate_payload(Message& msg) {
  // Retransmits re-enter here with an owned copy of the original bytes and
  // get a fresh region; a message that somehow already carries a view
  // passes through untouched. Empty payloads have nothing to elevate.
  if (msg.shm_backed() || msg.payload.size() == 0) return;
  const std::uint64_t n = msg.payload.size();
  const bool eligible =
      shm_payload_enabled_ && !msg.payload.borrowed() && uniform_arch();
  if (eligible) {
    std::vector<std::uint8_t> bytes = msg.payload.take_bytes();
    auto published = shm_arena_->publish(std::move(bytes));
    if (published) {
      msg.view = std::move(published).value();
      ++stats_.shm_payloads_published;
      telemetry_.count("rpc.bytes_zero_copy", {}, n);
      return;
    }
    // Arena full: `bytes` is untouched (publish checks capacity before
    // adopting), put it back and take the byte lane.
    msg.payload = ByteBuffer(std::move(bytes));
    ++stats_.shm_publish_fallbacks;
    telemetry_.flight().event(FlightEventKind::kArenaPublishFail, vnow_ns(),
                              msg.to, to_string(msg.type),
                              static_cast<std::int64_t>(n), msg.session);
  }
  telemetry_.count("rpc.bytes_copied", {}, n);
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

void Runtime::close_session(SessionId id) {
  if (SessionState* st = sessions_.find(id)) {
    cache_.release(st->pages);
    sessions_.close(id);
  }
  if (id != kNoSession && session_ == id) {
    session_ = kNoSession;
    telemetry_.tracer().set_session(current_session());
  }
  if (id != kNoSession && active_sessions() == 0) close_session(kNoSession);
}

bool Runtime::held_by_other_session(SessionId id) const {
  bool held = false;
  sessions_.for_each([&](const SessionState& st) {
    held = held || (st.id != id && st.id != kNoSession &&
                    (st.pages.table.size() > 0 || !st.updates.empty()));
  });
  return held;
}

std::size_t Runtime::revoke_source(SpaceId source) {
  sessions_.for_each([&](SessionState& st) { cache_.forget_source(st.pages, source); });
  return cache_.revoke_source(source);
}

// ---------------------------------------------------------------------------
// Pointer translation (heap + data allocation table)
// ---------------------------------------------------------------------------

Result<LongPointer> Runtime::unswizzle(std::uint64_t ordinary, TypeId pointee) {
  const void* addr = reinterpret_cast<const void*>(ordinary);
  if (cache_.contains(addr)) return cache_.unswizzle(addr);
  const ManagedHeap::Record* record = heap_.find(addr);
  if (record == nullptr) {
    return invalid_argument(
        "pointer 0x" + std::to_string(ordinary) +
        " references memory outside the system-controlled heap (paper §3.2: "
        "all shared data must live in the managed heap)");
  }
  const std::uint64_t base = reinterpret_cast<std::uint64_t>(record->base);
  if (ordinary == base) {
    return LongPointer{self_, ordinary, record->type};
  }
  // Interior pointer: nameable only for array elements.
  const TypeDescriptor& desc = registry_.get(record->type);
  if (desc.kind() != TypeKind::kArray) {
    (void)pointee;
    return unimplemented("interior pointer into non-array heap datum");
  }
  const std::uint64_t elem_size = layouts_.size_of(arch_, desc.element());
  if ((ordinary - base) % elem_size != 0) {
    return invalid_argument("interior pointer not on an element boundary");
  }
  return LongPointer{self_, ordinary, desc.element()};
}

Result<std::uint64_t> Runtime::swizzle(const LongPointer& pointer, TypeId pointee) {
  if (pointer.space == self_) {
    // Home data: the long pointer's address *is* the local ordinary pointer.
    if (heap_.find(reinterpret_cast<const void*>(pointer.address)) == nullptr) {
      return invalid_argument("incoming pointer to unknown home datum: " +
                              pointer.to_string());
    }
    return pointer.address;
  }
  return cache_.swizzle(pointer, pointee);
}

Result<std::uint64_t> Runtime::swizzle_home(const LongPointer& pointer, TypeId pointee) {
  if (pointer.space != self_) {
    return internal_error("swizzle_home with foreign pointer " + pointer.to_string());
  }
  return swizzle(pointer, pointee);
}

Result<LocalDataView::DatumView> Runtime::view_local(std::uint64_t local_addr) const {
  const void* addr = reinterpret_cast<const void*>(local_addr);
  if (cache_.contains(addr)) {
    const AllocationEntry* entry = cache_.lookup_local(addr);
    if (entry == nullptr) {
      return not_found("cache address with no allocation entry");
    }
    DatumView view;
    view.id = entry->pointer;
    view.image = cache_.is_resident(entry->local) ? entry->local : nullptr;
    return view;
  }
  const ManagedHeap::Record* record = heap_.find(addr);
  if (record == nullptr) {
    return not_found("address outside heap and cache");
  }
  DatumView view;
  view.id = LongPointer{self_, reinterpret_cast<std::uint64_t>(record->base),
                        record->type};
  view.image = record->base;
  return view;
}

// ---------------------------------------------------------------------------
// Coherency sections (paper §3.4)
// ---------------------------------------------------------------------------

namespace {

// Receives one graph payload of *modified* objects: applied in place at
// home, overwritten/overlaid in the cache elsewhere (the sender was the
// single active thread, so incoming values always win).
class IncorporateSink final : public GraphSink {
 public:
  explicit IncorporateSink(Runtime& rt) : rt_(rt) {}

  Result<void*> prepare(std::uint32_t index, const LongPointer& id) override {
    if (locals_.size() <= index) locals_.resize(index + 1, 0);
    if (id.space == rt_.id()) {
      const ManagedHeap::Record* record = rt_.heap().find_base(id.address);
      if (record == nullptr) {
        // Write-back to data freed at home (free-while-cached): tolerated,
        // dropped. See DESIGN.md §6.
        SRPC_WARN << "dropping modified datum for unknown home address "
                  << id.to_string();
        locals_[index] = id.address;
        return static_cast<void*>(nullptr);
      }
      locals_[index] = id.address;
      // The value arriving for our home datum was produced elsewhere: keep
      // it in the travelling set so other spaces' stale caches hear of it.
      rt_.note_home_update(id);
      return static_cast<void*>(record->base);
    }
    auto dest = rt_.cache().prepare_incoming_dirty(id);
    if (!dest) return dest.status();
    const AllocationEntry* entry = rt_.cache().lookup(id);
    if (entry == nullptr) {
      return internal_error("incoming dirty datum vanished: " + id.to_string());
    }
    locals_[index] = reinterpret_cast<std::uint64_t>(entry->local);
    return dest;
  }

  Result<std::uint64_t> address_of(std::uint32_t index) override {
    if (index >= locals_.size() || locals_[index] == 0) {
      return internal_error("address_of before prepare");
    }
    return locals_[index];
  }

  Result<std::uint64_t> swizzle(const LongPointer& target, TypeId pointee) override {
    return rt_.swizzle(target, pointee);
  }

 private:
  Runtime& rt_;
  std::vector<std::uint64_t> locals_;
};

}  // namespace

void Runtime::note_home_update(const LongPointer& id) {
  SessionState& st = cur_state();
  if (!st.updates.insert(id).second) return;
  // First remote update this session: the current heap bytes are the
  // baseline every later delta is expressed against. The caller has not
  // applied the incoming value yet.
  const ManagedHeap::Record* record = heap_.find_base(id.address);
  if (record != nullptr) {
    st.home_twins[id].assign(record->base, record->base + record->size);
  }
}

CacheManager::ModifiedDatum Runtime::home_modified_datum(
    const SessionState& st, const LongPointer& id,
    const ManagedHeap::Record& record) const {
  CacheManager::ModifiedDatum d;
  d.id = LongPointer{self_, id.address, record.type};
  d.image = record.base;
  d.size = static_cast<std::uint32_t>(record.size);
  const auto twin = st.home_twins.find(id);
  if (twin != st.home_twins.end() && twin->second.size() == record.size) {
    d.has_baseline = true;
    diff_ranges(record.base, twin->second.data(),
                static_cast<std::uint32_t>(record.size), 0,
                /*merge_gap=*/8, d.dirty);
  }
  return d;
}

void Runtime::commit_shipped(SpaceId dest,
                             const std::vector<ShippedRecord>& shipped) {
  auto& ship = cur_state().ship;
  for (const ShippedRecord& s : shipped) {
    ship[s.id].peer_fingerprint[dest] = s.fingerprint;
  }
}

Status Runtime::attach_modified_set(ByteBuffer& out, SpaceId dest,
                                    bool write_back, std::size_t* encoded,
                                    std::vector<ShippedRecord>* shipped) {
  SessionState& sst = cur_state();
  ++sst.ship_epoch;
  const bool use_deltas = modified_deltas_enabled_ && uniform_arch();
  // In a recovery world a write-back doubles as the home's redo record: its
  // WAL replay restores the pre-session heap, so the staged set must carry
  // EVERY modified object homed there — including content the home already
  // observed on an earlier hop. Re-applying identical bytes is idempotent;
  // skipping them would leave the stage incomplete.
  const bool self_contained_redo = write_back && recovery_ != nullptr;

  if (!use_deltas) {
    // Deltas off or a mixed-arch world: the original page-granular
    // protocol. Every object on a dirty page travels as a full image — no
    // baseline diffing, no cross-hop suppression.
    std::map<SpaceId, std::vector<GraphObjectRef>> groups;
    std::size_t emitted = 0;
    for (const auto& m : cache_.collect_modified()) {
      if (write_back && m.id.space != dest) continue;
      if (is_provisional_address(m.id.address)) {
        return internal_error("provisional identity in modified set: " +
                              m.id.to_string() + " (alloc batch not flushed?)");
      }
      groups[m.id.space].push_back(GraphObjectRef{m.id.address, m.id.type, m.image});
      ++emitted;
    }
    if (!write_back) {
      for (auto it = sst.updates.begin(); it != sst.updates.end();) {
        const ManagedHeap::Record* record = heap_.find_base(it->address);
        if (record == nullptr) {
          it = sst.updates.erase(it);  // freed since: drop from the set
          continue;
        }
        groups[self_].push_back(GraphObjectRef{it->address, record->type, record->base});
        ++emitted;
        ++it;
      }
    }
    xdr::Encoder enc(out);
    const std::size_t before = out.size();
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
    stats_.modified_bytes_shipped += out.size() - before;
    if (encoded != nullptr) *encoded = emitted;
    return Status::ok();
  }

  // Gather the candidate set: the cache's modified data, plus (except in
  // write-back mode, where every datum is already expressed against its
  // home) our own home data that remote activity modified this session.
  std::vector<CacheManager::ModifiedDatum> candidates;
  for (auto& d : cache_.collect_modified_deltas()) {
    if (write_back && d.id.space != dest) continue;
    candidates.push_back(std::move(d));
  }
  if (!write_back) {
    for (auto it = sst.updates.begin(); it != sst.updates.end();) {
      const ManagedHeap::Record* record = heap_.find_base(it->address);
      if (record == nullptr) {
        it = sst.updates.erase(it);  // freed since: drop from the set
        continue;
      }
      candidates.push_back(home_modified_datum(sst, *it, *record));
      ++it;
    }
  }

  struct DeltaItem {
    LongPointer id;
    std::uint64_t epoch = 0;
    std::vector<ByteRange> ranges;
    const std::uint8_t* image = nullptr;
  };
  std::map<SpaceId, std::vector<GraphObjectRef>> groups;
  std::vector<DeltaItem> deltas;
  std::size_t emitted = 0;

  for (auto& d : candidates) {
    if (is_provisional_address(d.id.address)) {
      return internal_error("provisional identity in modified set: " +
                            d.id.to_string() + " (alloc batch not flushed?)");
    }
    ShipState& st = sst.ship[d.id];
    // Effective ranges: what differs from the baseline now, plus whatever
    // was already shipped (receivers hold those bytes; a revert to the
    // baseline value must still travel).
    std::vector<ByteRange> eff;
    if (d.has_baseline) {
      eff = d.dirty;
      eff.insert(eff.end(), st.ever_shipped.begin(), st.ever_shipped.end());
      merge_ranges(eff);
      if (eff.empty()) continue;  // dirtied page, identical bytes: nothing new
    } else {
      eff.assign(1, ByteRange{0, d.size});
    }
    const std::uint64_t fp = fingerprint_ranges(d.image, eff);
    if (fp != st.fingerprint) {
      st.fingerprint = fp;
      st.epoch = sst.ship_epoch;
    }
    if (const auto peer = st.peer_fingerprint.find(dest);
        !self_contained_redo && peer != st.peer_fingerprint.end() &&
        peer->second == fp) {
      ++stats_.deltas_skipped_by_epoch;  // dest already holds this content
      continue;
    }

    bool as_delta = use_deltas && d.has_baseline;
    if (as_delta) {
      // Raw ranges ship local images verbatim; swizzled local pointers are
      // meaningless elsewhere, so pointer-touching deltas take the graph
      // encoder instead.
      auto plan = layouts_.layout_of(arch_, d.id.type);
      if (!plan) return plan.status();
      if (ranges_intersect(eff, plan.value()->pointer_ranges)) {
        as_delta = false;
      } else if (d.complete && modified_delta_wire_size(eff) >=
                                   graph_object_wire_size(*plan.value())) {
        // Full-image fallback: past this point the delta costs more wire
        // than simply re-sending the object.
        as_delta = false;
      }
    }
    if (!as_delta && !d.complete) {
      // A partially received overlay cannot be composed into a full image.
      // Deltas are world-uniform, so this only happens if they were toggled
      // off mid-session; ship the delta regardless — every receiver
      // auto-detects the format.
      SRPC_WARN << name_ << ": partial overlay for " << d.id.to_string()
                << " forced into delta format";
      as_delta = true;
    }

    if (as_delta) {
      deltas.push_back(DeltaItem{d.id, st.epoch, eff, d.image});
    } else {
      groups[d.id.space].push_back(GraphObjectRef{d.id.address, d.id.type, d.image});
    }
    ++emitted;
    if (shipped != nullptr) shipped->push_back(ShippedRecord{d.id, fp});
    if (d.has_baseline) {
      st.ever_shipped.insert(st.ever_shipped.end(), eff.begin(), eff.end());
      merge_ranges(st.ever_shipped);
    } else {
      st.ever_shipped.assign(1, ByteRange{0, d.size});
    }
  }

  xdr::Encoder enc(out);
  const std::size_t before = out.size();
  if (deltas.empty()) {
    // Every surviving candidate fell back to a full image (small objects,
    // pointer-touching writes): the legacy layout says it in fewer bytes.
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
  } else {
    std::uint64_t delta_wire = 0;
    for (const DeltaItem& item : deltas) {
      delta_wire += modified_delta_wire_size(item.ranges);
    }
    enc.reserve(16 + delta_wire);
    enc.put_u32(kModifiedDeltaMagic);
    enc.put_u32(0);  // flags, reserved
    enc.put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& [space, refs] : groups) {
      SRPC_RETURN_IF_ERROR(
          encode_graph_payload(codec_, arch_, space, refs, *this, out));
    }
    enc.put_u32(static_cast<std::uint32_t>(deltas.size()));
    for (const DeltaItem& item : deltas) {
      encode_modified_delta(enc, item.id, item.epoch, item.ranges, item.image);
    }
    stats_.delta_bytes_shipped += delta_wire;
  }
  stats_.modified_bytes_shipped += out.size() - before;
  if (encoded != nullptr) *encoded = emitted;
  return Status::ok();
}

void Runtime::observe_incoming(const LongPointer& id, SpaceId from,
                               std::uint64_t epoch) {
  SessionState& sst = cur_state();
  ShipState& st = sst.ship[id];
  if (epoch > st.epoch) st.epoch = epoch;
  // Fingerprint our own post-application image the same way
  // attach_modified_set() will, and credit `from` with it: the sender knows
  // exactly what it sent, so echoing it back is pure waste.
  CacheManager::ModifiedDatum d;
  if (id.space == self_) {
    const ManagedHeap::Record* record = heap_.find_base(id.address);
    if (record == nullptr) return;  // dropped (freed at home)
    d = home_modified_datum(sst, id, *record);
  } else {
    auto datum = cache_.modified_datum(id);
    if (!datum) return;  // e.g. skipped object that never landed
    d = std::move(datum).value();
  }
  std::vector<ByteRange> eff;
  if (d.has_baseline) {
    eff = d.dirty;
    eff.insert(eff.end(), st.ever_shipped.begin(), st.ever_shipped.end());
    merge_ranges(eff);
  } else {
    eff.assign(1, ByteRange{0, d.size});
  }
  const std::uint64_t fp = eff.empty() ? 0 : fingerprint_ranges(d.image, eff);
  st.fingerprint = fp;
  st.peer_fingerprint[from] = fp;
}

Status Runtime::apply_delta_entry(const ModifiedDelta& delta) {
  if (delta.id.space == self_) {
    const ManagedHeap::Record* record = heap_.find_base(delta.id.address);
    if (record == nullptr) {
      // Delta for data freed at home (free-while-cached): tolerated,
      // dropped — same policy as the graph-payload path.
      SRPC_WARN << name_ << ": dropping delta for unknown home address "
                << delta.id.to_string();
      return Status::ok();
    }
    if (!delta.ranges.empty() && delta.ranges.back().end() > record->size) {
      return protocol_error("delta range past the end of home datum " +
                            delta.id.to_string());
    }
    note_home_update(delta.id);  // snapshots the pre-application baseline
    const std::uint8_t* src = delta.bytes.data();
    for (const ByteRange& r : delta.ranges) {
      std::memcpy(record->base + r.offset, src, r.len);
      src += r.len;
    }
    return Status::ok();
  }
  return cache_.apply_incoming_delta(delta.id, delta.ranges, delta.bytes.data());
}

Status Runtime::apply_modified_set(ByteBuffer& in, SpaceId from) {
  xdr::Decoder dec(in);
  auto first = dec.get_u32();
  if (!first) return first.status();

  std::vector<std::pair<LongPointer, std::uint64_t>> received;  // id, epoch
  auto apply_payloads = [&](std::uint32_t count) -> Status {
    for (std::uint32_t i = 0; i < count; ++i) {
      IncorporateSink sink(*this);
      std::vector<LongPointer> ids;
      SRPC_RETURN_IF_ERROR(decode_graph_payload(codec_, arch_, in, sink, &ids));
      for (const LongPointer& id : ids) received.emplace_back(id, 0);
    }
    return Status::ok();
  };

  if (first.value() == kModifiedDeltaMagic) {
    auto flags = dec.get_u32();
    if (!flags) return flags.status();
    auto nfull = dec.get_u32();
    if (!nfull) return nfull.status();
    SRPC_RETURN_IF_ERROR(apply_payloads(nfull.value()));
    auto ndelta = dec.get_u32();
    if (!ndelta) return ndelta.status();
    for (std::uint32_t i = 0; i < ndelta.value(); ++i) {
      auto delta = decode_modified_delta(dec);
      if (!delta) return delta.status();
      SRPC_RETURN_IF_ERROR(apply_delta_entry(delta.value()));
      received.emplace_back(delta.value().id, delta.value().epoch);
    }
  } else {
    SRPC_RETURN_IF_ERROR(apply_payloads(first.value()));
  }

  for (const auto& [id, epoch] : received) {
    observe_incoming(id, from, epoch);
  }
  return Status::ok();
}

Status Runtime::attach_closures(ByteBuffer& out, std::span<const std::uint64_t> roots) {
  xdr::Encoder enc(out);
  if (roots.empty()) {
    enc.put_u32(0);
    return Status::ok();
  }
  auto packed = packer_.pack(roots, cache_.closure_bytes(), /*require_roots=*/false);
  if (!packed) return packed.status();
  enc.put_u32(static_cast<std::uint32_t>(packed.value().groups.size()));
  for (const auto& [space, refs] : packed.value().groups) {
    SRPC_RETURN_IF_ERROR(
        encode_graph_payload(codec_, arch_, space, refs, *this, out));
  }
  return Status::ok();
}

Status Runtime::apply_closures(ByteBuffer& in) {
  xdr::Decoder dec(in);
  auto count = dec.get_u32();
  if (!count) return count.status();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    SRPC_RETURN_IF_ERROR(cache_.incorporate_clean_payload(in));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Error plumbing
// ---------------------------------------------------------------------------

Message Runtime::request(MessageType type, SpaceId to, SessionId session) {
  Message msg;
  msg.type = type;
  msg.to = to;
  msg.session = session;
  msg.seq = endpoint_.next_seq();
  return msg;
}

Message Runtime::reply_to(const Message& req, MessageType type) {
  Message reply;
  reply.type = type;
  reply.to = req.from;
  reply.session = req.session;
  reply.seq = req.seq;
  return reply;
}

Status Runtime::send_error(const Message& req, const Status& error) {
  Message reply = reply_to(req, MessageType::kError);
  xdr::Encoder enc(reply.payload);
  enc.put_u32(static_cast<std::uint32_t>(error.code()));
  enc.put_string(error.message());
  return endpoint_.send(std::move(reply));
}

Status Runtime::decode_error(Message& msg) {
  xdr::Decoder dec(msg.payload);
  auto code = dec.get_u32();
  auto text = code ? dec.get_string() : Result<std::string>(code.status());
  if (!code || !text || code.value() == 0) {  // an ERROR never carries OK
    return protocol_error("malformed error message");
  }
  return Status(static_cast<StatusCode>(code.value()),
                "remote(" + std::to_string(msg.from) + "): " + text.value());
}

// ---------------------------------------------------------------------------
// Duplicate absorption and session tombstones
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kServedRequestWindow = 1024;  // per-peer dedup memory
constexpr std::size_t kDeadSessionWindow = 64;      // remembered tombstones
}  // namespace

bool Runtime::note_duplicate_request(SpaceId from, std::uint64_t seq) {
  ServedRequests& served = served_requests_[from];
  if (served.seen.contains(seq)) return true;
  served.seen.insert(seq);
  served.order.push_back(seq);
  if (served.order.size() > kServedRequestWindow) {
    served.seen.erase(served.order.front());
    served.order.pop_front();
  }
  return false;
}

void Runtime::tombstone_session(SessionId session) {
  if (session == kNoSession || dead_session_set_.contains(session)) return;
  dead_session_set_.insert(session);
  dead_session_order_.push_back(session);
  if (dead_session_order_.size() > kDeadSessionWindow) {
    dead_session_set_.erase(dead_session_order_.front());
    dead_session_order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Remote memory management (paper §3.5)
// ---------------------------------------------------------------------------

Result<void*> Runtime::extended_malloc(SpaceId home, TypeId type, std::uint32_t count) {
  if (count == 0) return invalid_argument("extended_malloc: zero count");
  if (home == self_) {
    return heap_.allocate(type, count);
  }
  const TypeId full = count > 1 ? registry_.array_of(type, count) : type;
  auto layout = layouts_.layout_of(arch_, full);
  if (!layout) return layout.status();
  return cur_state().memory_ops.allocate(cache_, home, full, layout.value()->size,
                                         layout.value()->align);
}

Status Runtime::extended_free(void* p) {
  if (p == nullptr) return invalid_argument("extended_free(nullptr)");
  if (!cache_.contains(p)) return heap_.free(p);
  const AllocationEntry* entry = cache_.lookup_local(p);
  if (entry == nullptr || entry->local != p) {
    return invalid_argument("extended_free: not a datum base address");
  }
  // The release lands in the batch of the session that owns the datum.
  ScopedSession owner(*this, cache_.owner_of(p));
  return cur_state().memory_ops.release(cache_, entry->pointer);
}

namespace {

// FETCH frame body: budget | wide flag | base | count | count x address
// (u32 deltas off the base unless any pointer needs the wide u64 form).
void encode_fetch_frame(ByteBuffer& out, std::span<const LongPointer> pointers,
                        std::uint64_t closure_budget) {
  xdr::Encoder enc(out);
  enc.put_u64(closure_budget);
  std::uint64_t base = pointers.empty() ? 0 : pointers[0].address;
  bool wide = false;
  for (const LongPointer& p : pointers) base = std::min(base, p.address);
  for (const LongPointer& p : pointers) {
    if (p.address - base > 0xFFFFFFFFULL) {
      wide = true;
      break;
    }
  }
  enc.put_u32(wide ? 1 : 0);
  enc.put_u64(base);
  enc.put_u32(static_cast<std::uint32_t>(pointers.size()));
  for (const LongPointer& p : pointers) {
    if (wide) {
      enc.put_u64(p.address);
    } else {
      enc.put_u32(static_cast<std::uint32_t>(p.address - base));
    }
  }
}

}  // namespace

Status Runtime::prefetch(const void* p, std::uint64_t closure_budget) {
  if (p == nullptr) return invalid_argument("prefetch(nullptr)");
  if (!cache_.contains(p)) return Status::ok();  // home data: already here
  return cache_.prefetch(p, closure_budget);
}

Status Runtime::prefetch_many(std::span<const void* const> pointers,
                              std::uint64_t closure_budget) {
  poll_failures();
  // One fill per session owning some of the addresses (normally just the
  // caller's); home data needs no prefetch.
  std::vector<std::pair<SessionId, std::vector<const void*>>> per_owner;
  for (const void* p : pointers) {
    if (p == nullptr || !cache_.contains(p)) continue;
    const SessionId owner = cache_.owner_of(p);
    auto it = std::find_if(per_owner.begin(), per_owner.end(),
                           [&](const auto& e) { return e.first == owner; });
    if (it == per_owner.end()) it = per_owner.insert(per_owner.end(), {owner, {}});
    it->second.push_back(p);
  }

  Status failure = Status::ok();
  for (auto& [owner, addrs] : per_owner) {
    const SessionId sid = owner != kNoSession ? owner : current_session();
    Status filled = cache_.prefetch_many(
        addrs, [&](std::vector<CacheManager::PrefetchGroup>& groups) {
          return parallel_fetch(groups, closure_budget, sid);
        });
    if (failure.is_ok() && !filled.is_ok()) failure = filled;
  }
  return failure;
}

Result<std::vector<ByteBuffer>> Runtime::parallel_fetch(
    std::vector<CacheManager::PrefetchGroup>& groups, std::uint64_t closure_budget,
    SessionId session) {
  // Every frame ships before any reply is collected: the homes serve their
  // FETCHes concurrently, so the wall-clock cost is the slowest single
  // round trip instead of the sum. Restricted await (nullptr dispatcher)
  // like the fault path: the cache is mid-fill and must not be re-entered.
  std::vector<ByteBuffer> replies(groups.size());
  Status fetched = fan_out(
      groups.size(), MessageType::kFetchReply, /*parallel=*/true, nullptr,
      [&](std::size_t g) {
        Message msg = request(MessageType::kFetch, groups[g].home, session);
        encode_fetch_frame(msg.payload, groups[g].pointers, closure_budget);
        return msg;
      },
      [&](std::size_t g, Result<Message> reply) {
        if (!reply) return reply.status();
        replies[g] = std::move(reply.value().payload);
        renew_lease(groups[g].home);
        return Status::ok();
      });
  if (!fetched.is_ok()) return fetched;
  return replies;
}

void Runtime::renew_lease(SpaceId source) {
  cache_.renew_lease(source, vnow_ns());
  if (telemetry_.tracing()) {
    telemetry_.annotate("lease renewed: source " + std::to_string(source));
  }
}

Status Runtime::flush_alloc_batches() {
  const SessionId session = current_session();
  SessionState* st = sessions_.find(session);
  if (st == nullptr) return Status::ok();
  for (const SpaceId home : st->memory_ops.pending_homes()) {
    RemoteAllocator::Batch batch = st->memory_ops.take_batch(home);
    Message msg = request(MessageType::kAllocBatch, home, session);
    xdr::Encoder enc(msg.payload);
    enc.put_u32(static_cast<std::uint32_t>(batch.allocs.size()));
    for (const auto& a : batch.allocs) {
      enc.put_u64(a.provisional);
      enc.put_u32(a.type);
    }
    enc.put_u32(static_cast<std::uint32_t>(batch.frees.size()));
    for (const std::uint64_t addr : batch.frees) {
      enc.put_u64(addr);
    }
    // Allocation is not idempotent (a replayed batch would double-allocate
    // at the home), so a single attempt races the full deadline.
    auto reply = guarded_roundtrip(std::move(msg), MessageType::kAllocReply,
                                   nullptr, /*idempotent=*/false);
    if (!reply) return reply.status();
    xdr::Decoder dec(reply.value().payload);
    auto n = dec.get_count(16);
    if (!n) return n.status();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> assigned;
    assigned.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto prov = dec.get_u64();
      if (!prov) return prov.status();
      auto real = dec.get_u64();
      if (!real) return real.status();
      assigned.emplace_back(prov.value(), real.value());
    }
    SRPC_RETURN_IF_ERROR(st->memory_ops.apply_assignments(cache_, home, assigned));
  }
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Failure containment (detector, probes, leases, orphan reclamation)
// ---------------------------------------------------------------------------

std::uint64_t Runtime::vnow_ns() const noexcept {
  return sim_ != nullptr ? sim_->clock().now() : 0;
}

std::string Runtime::metrics_json() {
  // Fold the legacy struct counters into the registry (assignment, not
  // accumulation: this may be called repeatedly) so one JSON snapshot
  // carries the whole picture.
  MetricsRegistry& m = telemetry_.metrics();
  const auto set = [&m](const char* name, std::uint64_t v) {
    m.counter(name).value = v;
  };
  set("runtime.calls_sent", stats_.calls_sent);
  set("runtime.calls_served", stats_.calls_served);
  set("runtime.fetches_served", stats_.fetches_served);
  set("runtime.derefs_served", stats_.derefs_served);
  set("runtime.alloc_batches_served", stats_.alloc_batches_served);
  set("runtime.stale_replies_absorbed", stats_.stale_replies_absorbed);
  set("runtime.duplicate_requests_absorbed", stats_.duplicate_requests_absorbed);
  set("runtime.dead_session_rejections", stats_.dead_session_rejections);
  set("runtime.sessions_aborted", stats_.sessions_aborted);
  set("runtime.modified_bytes_shipped", stats_.modified_bytes_shipped);
  set("runtime.delta_bytes_shipped", stats_.delta_bytes_shipped);
  set("runtime.deltas_skipped_by_epoch", stats_.deltas_skipped_by_epoch);
  set("runtime.wb_prepares", stats_.wb_prepares);
  set("runtime.wb_commits", stats_.wb_commits);
  set("runtime.wb_aborts", stats_.wb_aborts);
  set("runtime.wb_prepares_served", stats_.wb_prepares_served);
  set("runtime.wb_commits_served", stats_.wb_commits_served);
  set("runtime.wb_aborts_served", stats_.wb_aborts_served);
  set("runtime.probes_sent", stats_.probes_sent);
  set("runtime.peers_died", stats_.peers_died);
  set("runtime.failfast_rejections", stats_.failfast_rejections);
  set("runtime.leases_expired", stats_.leases_expired);
  set("runtime.orphan_bytes_reclaimed", stats_.orphan_bytes_reclaimed);
  set("runtime.session_teardown_failures", stats_.session_teardown_failures);
  set("runtime.sessions_committed", stats_.sessions_committed);
  set("runtime.wb_conflicts", stats_.wb_conflicts);
  set("runtime.shm_payloads_published", stats_.shm_payloads_published);
  set("runtime.shm_publish_fallbacks", stats_.shm_publish_fallbacks);
  // Crash recovery & reincarnation.
  set("recovery.fenced_stale_messages", stats_.fenced_stale_messages);
  set("recovery.rejoins_sent", stats_.rejoins_sent);
  set("recovery.rejoins_served", stats_.rejoins_served);
  set("recovery.replayed_records", stats_.recovery_replays);
  set("recovery.in_doubt_resolved_commit", stats_.in_doubt_resolved_commit);
  set("recovery.in_doubt_resolved_abort", stats_.in_doubt_resolved_abort);
  set("recovery.checkpoints_taken", stats_.checkpoints_taken);
  if (recovery_ != nullptr) {
    set("recovery.log_records", recovery_->records());
    set("recovery.log_bytes", recovery_->bytes_logged());
  }
  const CacheStats& cs = cache_.stats();
  set("cache.read_faults", cs.read_faults);
  set("cache.write_faults", cs.write_faults);
  set("cache.fills", cs.fills);
  set("cache.fetches", cs.fetches);
  set("cache.objects_filled", cs.objects_filled);
  set("cache.objects_skipped", cs.objects_skipped);
  set("cache.closure_prefetch_hits", cs.closure_prefetch_hits);
  set("cache.closure_prefetch_misses", cs.closure_prefetch_misses);
  set("rpc.retransmits", endpoint_.retransmits());
  // Concurrency layer (multi-session runtime + home-side arbitration).
  set("concurrency.active_sessions", active_sessions());
  set("concurrency.lock_waits", arbiter_.stats().lock_waits);
  set("concurrency.conflicts", arbiter_.stats().conflicts);
  set("concurrency.wounds", arbiter_.stats().wounds);
  set("concurrency.locks_held", arbiter_.lock_count());
  return m.to_json();
}

std::string Runtime::health_json() {
  std::string out = "{";
  out += "\"space\": " + std::to_string(self_);
  out += ", \"name\": \"" + name_ + "\"";
  out += ", \"incarnation\": " + std::to_string(incarnation_);
  // Failure-detector verdicts, one entry per peer it has ever judged.
  out += ", \"detector\": {";
  bool first = true;
  for (const auto& p : detector_.snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::to_string(p.peer) + "\": {\"health\": \"" +
           std::string(to_string(p.health)) +
           "\", \"misses\": " + std::to_string(p.consecutive_misses) +
           ", \"last_contact_ns\": " + std::to_string(p.last_contact_ns) + "}";
  }
  out += "}";
  // Home-side lock arbitration pressure.
  const ArbiterStats& as = arbiter_.stats();
  out += ", \"locks\": {\"held\": " + std::to_string(arbiter_.lock_count());
  out += ", \"waits\": " + std::to_string(as.lock_waits);
  out += ", \"conflicts\": " + std::to_string(as.conflicts);
  out += ", \"wounds\": " + std::to_string(as.wounds) + "}";
  // Server-side dedup window (at-most-once memory) and client-side
  // completion slots (pipelined futures still in flight).
  std::size_t dedup = 0;
  for (const auto& [peer, served] : served_requests_) dedup += served.seen.size();
  out += ", \"dedup_window\": " + std::to_string(dedup);
  out += ", \"completion_slots\": " + std::to_string(endpoint_.inflight());
  out += ", \"retransmits\": " + std::to_string(endpoint_.retransmits());
  out += ", \"sessions\": {\"active\": " + std::to_string(active_sessions());
  out += ", \"in_doubt_stages\": " + std::to_string(shadow_commits_.size()) +
         "}";
  out += ", \"slo\": " + telemetry_.slo().to_json();
  out += ", \"flight\": {\"events\": " +
         std::to_string(telemetry_.flight().total_recorded());
  out += ", \"capacity\": " + std::to_string(telemetry_.flight().capacity());
  out += ", \"dumps\": " + std::to_string(telemetry_.flight().dump_count()) +
         "}";
  out += "}";
  return out;
}

void Runtime::probe_peer(SpaceId peer) {
  probing_ = true;
  ++stats_.probes_sent;
  Message ping = request(MessageType::kPing, peer, kNoSession);
  // One short attempt: the surrounding request already burned its deadline,
  // the probe only asks "is anyone there at all".
  TimeoutConfig cfg = timeouts_;
  cfg.request_deadline = cfg.attempt_timeout;
  cfg.max_attempts = 1;
  auto pong = endpoint_.roundtrip(std::move(ping), MessageType::kPong, nullptr,
                                  cfg, /*idempotent=*/true);
  probing_ = false;
  if (pong) {
    // The peer lives; the original failure was loss or slowness, not death.
    detector_.note_contact(peer, vnow_ns());
    return;
  }
  const PeerHealth verdict = detector_.note_miss(peer);
  telemetry_.flight().event(FlightEventKind::kDetector, vnow_ns(), peer,
                            std::string("probe miss -> ") +
                                std::string(to_string(verdict)));
  SRPC_WARN << name_ << ": probe of space " << peer
            << " missed; peer is " << to_string(verdict);
  if (telemetry_.tracing()) {
    telemetry_.annotate("probe miss: space " + std::to_string(peer) + " is " +
                        std::string(to_string(verdict)));
  }
  if (verdict == PeerHealth::kDead) {
    // We may be inside the SIGSEGV fill path: defer the page revocation and
    // heap reclamation to the next safe point.
    pending_dead_cleanup_.push_back(peer);
  }
}

Result<std::uint64_t> Runtime::issue_guarded(
    Message msg, MessageType reply_type, bool idempotent,
    std::shared_ptr<Promise<Message>> promise, bool nested) {
  const SpaceId peer = msg.to;
  const MessageType kind = msg.type;
  const SessionId msg_session = msg.session;
  const std::uint64_t seq = msg.seq;
  if (msg_session != kNoSession && peer != self_) {
    // Remember who this session talked to from here: the multi-session
    // invalidation multicasts to exactly this set (and each member forwards
    // to its own), instead of the whole world directory.
    if (SessionState* st = sessions_.find(msg_session)) st->touched.insert(peer);
  }
  if (detector_.is_dead(peer)) {
    ++stats_.failfast_rejections;
    telemetry_.count("rpc.failfast_rejections",
                     std::string("peer=") + std::to_string(peer));
    return space_dead("space " + std::to_string(peer) +
                      " is dead (failure detector)");
  }

  // Every request this runtime initiates passes through here, so this one
  // site produces the client half of the span tree and the per-kind
  // latency histograms.
  const std::uint64_t start = telemetry_.now_ns();
  SpanRecorder::Handle span = SpanRecorder::kNoSpan;
  if (telemetry_.tracing()) {
    // Pipelined and fan-out spans are detached: concurrent siblings that
    // finish whenever their reply lands. Pushing them would corrupt the
    // LIFO stack once replies complete out of order.
    SpanRecorder& tracer = telemetry_.tracer();
    std::string name =
        std::string(to_string(kind)) + " -> " + std::to_string(peer);
    span = nested ? tracer.start_local(std::move(name), "rpc.client", start)
                  : tracer.start_detached(std::move(name), "rpc.client", start);
    // Retransmits reuse this message verbatim (same span), so a duplicated
    // serve lands as a sibling, never a forked tree.
    msg.trace = tracer.context_of(span);
  }
  const std::string kind_label = std::string("kind=") + std::string(to_string(kind));

  // Runs inside whichever pump settles the slot — possibly while another
  // request is being collected, possibly on the SIGSEGV fetch path. Light
  // by contract: telemetry, lease touch, promise fulfilment; probes are
  // deferred to drain_probes(). Any reply, ERROR included, is contact with
  // a live peer.
  auto settle = [this, peer, span, start, kind, kind_label,
                 promise](Result<Message>& reply) {
    const std::uint64_t end = telemetry_.now_ns();
    telemetry_.hist("rpc.roundtrip_ns", kind_label).record(end - start);
    telemetry_.observe_slo(to_string(kind), end - start);
    telemetry_.count("rpc.requests", kind_label);
    telemetry_.count("rpc.requests", std::string("peer=") + std::to_string(peer));
    if (span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().finish(span, end, reply.is_ok());
    }
    if (reply.is_ok()) {
      detector_.note_contact(peer, vnow_ns());
      cache_.touch_lease(peer, vnow_ns());
    } else {
      telemetry_.count("rpc.failures", kind_label);
      const StatusCode code = reply.status().code();
      if (code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kUnavailable) {
        pending_probe_peers_.push_back(peer);
      }
    }
    if (!promise) return;
    if (reply.is_ok() && reply.value().type == MessageType::kError) {
      promise->set_error(decode_error(reply.value()));
    } else {
      promise->set_result(std::move(reply));
    }
  };

  RpcEndpoint::IssueOptions opts;
  opts.cfg = timeouts_;
  opts.idempotent = idempotent;
  opts.detached = promise != nullptr;
  opts.on_complete = settle;
  if (span != SpanRecorder::kNoSpan) {
    opts.on_retransmit = [this, span, reply_type, seq](std::uint32_t attempt,
                                                       std::uint32_t attempts) {
      telemetry_.tracer().annotate(
          span,
          "retransmit " + std::string(to_string(reply_type)) + " seq=" +
              std::to_string(seq) + " attempt " + std::to_string(attempt) + "/" +
              std::to_string(attempts),
          telemetry_.now_ns());
    };
  }

  auto issued = endpoint_.issue(std::move(msg), reply_type, std::move(opts));
  if (!issued) {
    // The request never left (transport refusal or seq collision): settle
    // it like a failed reply, and probe the peer now — we are on a normal
    // stack, not inside a pump.
    Result<Message> refused(issued.status());
    settle(refused);
    drain_probes();
  }
  return issued;
}

Result<Message> Runtime::collect_guarded(std::uint64_t seq,
                                         const RpcEndpoint::Dispatcher& serve) {
  auto reply = endpoint_.collect(seq, serve);
  drain_probes();
  if (reply && reply.value().type == MessageType::kError) {
    return decode_error(reply.value());
  }
  return reply;
}

Result<Message> Runtime::guarded_roundtrip(Message msg, MessageType reply_type,
                                           const RpcEndpoint::Dispatcher& serve,
                                           bool idempotent) {
  auto seq = issue_guarded(std::move(msg), reply_type, idempotent, nullptr,
                           /*nested=*/true);
  if (!seq) return seq.status();
  return collect_guarded(seq.value(), serve);
}

Status Runtime::fan_out(std::size_t n, MessageType reply_type, bool parallel,
                        const RpcEndpoint::Dispatcher& serve,
                        const FrameMaker& make, const FrameSettler& settle) {
  Status failure = Status::ok();
  auto note = [&failure](Status s) {
    if (failure.is_ok()) failure = std::move(s);
  };
  std::vector<std::pair<std::size_t, std::uint64_t>> inflight;
  for (std::size_t i = 0; i < n; ++i) {
    if (!parallel && !failure.is_ok()) break;
    auto issued = issue_guarded(make(i), reply_type, /*idempotent=*/true);
    if (!issued) {
      note(settle(i, issued.status()));
    } else if (parallel) {
      inflight.emplace_back(i, issued.value());
    } else {
      note(settle(i, collect_guarded(issued.value(), serve)));
    }
  }
  for (const auto& [i, seq] : inflight) {
    note(settle(i, collect_guarded(seq, serve)));
  }
  return failure;
}

Status Runtime::invalidate_peers(SessionId session,
                                 const std::vector<SpaceId>& peers,
                                 bool aborted, bool parallel,
                                 const RpcEndpoint::Dispatcher& serve,
                                 bool best_effort) {
  std::vector<SpaceId> live;
  for (const SpaceId peer : peers) {
    if (peer != self_ && !detector_.is_dead(peer)) live.push_back(peer);
  }
  Status worst = Status::ok();
  Status first = fan_out(
      live.size(), MessageType::kInvalidateAck, parallel, serve,
      [&](std::size_t i) {
        Message msg = request(MessageType::kInvalidate, live[i], session);
        // aborted=1: homes discard any staged write-back and reclaim the
        // extended_malloc storage this session created there; 0 promotes it.
        xdr::Encoder enc(msg.payload);
        enc.put_u32(aborted ? 1u : 0u);
        return msg;
      },
      [&](std::size_t i, Result<Message> ack) {
        // SPACE_DEAD here is the failfast of a peer declared dead mid-sweep.
        if (ack || ack.status().code() == StatusCode::kSpaceDead) {
          return Status::ok();
        }
        if (!best_effort) return ack.status();
        SRPC_WARN << name_ << ": invalidate of space " << live[i]
                  << " for session " << session
                  << " failed: " << ack.status().to_string();
        worst = ack.status();
        return Status::ok();
      });
  return best_effort ? worst : first;
}

Status Runtime::pump_guarded(std::chrono::steady_clock::time_point deadline) {
  Status pumped = endpoint_.pump_once(deadline, full_dispatcher_);
  drain_probes();
  return pumped;
}

void Runtime::drain_probes() {
  if (probing_) return;
  while (!pending_probe_peers_.empty()) {
    const SpaceId peer = pending_probe_peers_.back();
    pending_probe_peers_.pop_back();
    if (!detector_.is_dead(peer)) probe_peer(peer);
  }
}

void Runtime::on_peer_dead(SpaceId peer) {
  detector_.mark_dead(peer);
  if (!dead_cleaned_.insert(peer).second) return;  // already contained
  ++stats_.peers_died;
  telemetry_.flight().event(FlightEventKind::kDetector, vnow_ns(), peer,
                            "declared dead");
  const std::size_t revoked = revoke_source(peer);
  if (revoked > 0) {
    ++stats_.leases_expired;
    telemetry_.flight().event(FlightEventKind::kLeaseExpiry, vnow_ns(), peer,
                              "revoked on death",
                              static_cast<std::int64_t>(revoked));
  }
  std::uint64_t reclaimed = 0;
  if (incarnation_ == 0) {
    // Locks and version observations of the dead peer's sessions will never
    // resolve through WB_COMMIT/INVALIDATE; drop them here.
    arbiter_.release_space(peer);
    reclaimed = heap_.reclaim_owned_by(peer);
    stats_.orphan_bytes_reclaimed += reclaimed;
    // Shadow commits staged by the dead coordinator will never commit.
    for (auto it = shadow_commits_.begin(); it != shadow_commits_.end();) {
      if (it->second.from == peer) {
        ++stats_.wb_aborts_served;
        it = shadow_commits_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // In a recovery world death is not terminal: the peer's stages stay
  // in doubt and its orphan storage stays tagged until its successor
  // incarnation REJOINs with the decision log (on_peer_rejoin) — dropping
  // them now would turn a logged commit into silent data loss.
  SRPC_ERROR << name_ << ": space " << peer << " declared dead; revoked "
             << revoked << " cached pages, reclaimed " << reclaimed
             << " orphaned bytes";
  if (telemetry_.tracing()) {
    telemetry_.annotate("peer dead: space " + std::to_string(peer) +
                        ", revoked " + std::to_string(revoked) +
                        " pages, reclaimed " + std::to_string(reclaimed) +
                        " bytes");
  }
}

void Runtime::poll_failures() {
  while (!pending_dead_cleanup_.empty()) {
    const SpaceId peer = pending_dead_cleanup_.back();
    pending_dead_cleanup_.pop_back();
    on_peer_dead(peer);
  }
  // Reincarnations learned from passing traffic (a REJOIN we have not
  // processed yet): run the same cleanup the explicit announcement would
  // have, but with no decision log in hand the in-doubt stages are KEPT
  // staged — the announcement may be delayed rather than lost, and
  // presuming abort here while peers that received it roll forward would
  // diverge permanently.
  while (!pending_rejoin_cleanup_.empty()) {
    const auto [peer, incarnation] = pending_rejoin_cleanup_.back();
    pending_rejoin_cleanup_.pop_back();
    on_peer_rejoin(peer, incarnation, {}, /*authoritative=*/false);
  }
  if (lease_ttl_ns_ == 0 || sim_ == nullptr) return;
  const std::uint64_t now = vnow_ns();
  for (const SpaceId source : cache_.lapsed_sources(now, lease_ttl_ns_)) {
    const std::size_t revoked = revoke_source(source);
    ++stats_.leases_expired;
    telemetry_.flight().event(FlightEventKind::kLeaseExpiry, now, source,
                              "ttl lapsed", static_cast<std::int64_t>(revoked));
    detector_.mark_suspect(source);
    SRPC_WARN << name_ << ": lease on source space " << source
              << " lapsed; revoked " << revoked << " cached pages";
    if (telemetry_.tracing()) {
      telemetry_.annotate("lease expired: source " + std::to_string(source) +
                          ", revoked " + std::to_string(revoked) + " pages");
    }
  }
}

// ---------------------------------------------------------------------------
// Crash recovery & reincarnation (PROTOCOL.md "Incarnations, fencing &
// rejoin")
// ---------------------------------------------------------------------------

void Runtime::set_recovery(RecoveryLog* log, std::uint32_t incarnation) {
  recovery_ = log;
  incarnation_ = log != nullptr ? incarnation : 0;
  if (recovery_ == nullptr || incarnation_ == 0) {
    endpoint_.set_stamp({});
    endpoint_.set_fence({});
    return;
  }
  // Logged addresses must stay unique for the log's lifetime: freed storage
  // is retired, never handed back to the system allocator, so a replayed
  // ALLOC can always re-register the exact range.
  heap_.set_retain_freed(true);
  // Partition the session-id space by incarnation: the prior life's ids are
  // tombstoned at every home it touched, so the successor must never mint
  // them again (its first session would be refused as a dead straggler).
  // 2^24 ids per life, 256 lives in the 32-bit counter field —
  // begin_session() refuses loudly (RESOURCE_EXHAUSTED) when either runs
  // out rather than bleeding into a neighbouring partition.
  session_counter_ = (static_cast<std::uint64_t>(incarnation_) - 1) << 24;
  if (incarnation_ > 256) {
    SRPC_ERROR << name_ << ": incarnation " << incarnation_
               << " exceeds the session-id partition space (256 lives); "
               << "begin_session() will refuse until the space is retired";
  }
  endpoint_.set_stamp([this](Message& msg) {
    msg.incarnation = incarnation_;
    const auto it = peer_incarnations_.find(msg.to);
    msg.to_incarnation = it != peer_incarnations_.end() ? it->second : 0;
  });
  endpoint_.set_fence([this](const Message& msg) { return fence_stale(msg); });
}

bool Runtime::fence_stale(const Message& msg) {
  if (incarnation_ == 0) return false;
  // REJOIN (and its ack) is exempt: it is how a higher incarnation makes
  // itself known in the first place.
  if (msg.type == MessageType::kRejoin || msg.type == MessageType::kRejoinAck) {
    return false;
  }
  bool stale = false;
  if (msg.incarnation != 0) {
    const auto known = peer_incarnations_.find(msg.from);
    const std::uint32_t seen = known != peer_incarnations_.end() ? known->second : 0;
    if (msg.incarnation < seen) {
      // The sender's prior life: its session state, leases, and seq space
      // died with it.
      stale = true;
    } else if (msg.incarnation > seen && seen != 0) {
      // Passing traffic from a life newer than the one we last processed a
      // REJOIN for (its announcement was lost or is still in flight). The
      // frame itself is fresh; the prior life's residue here is flushed at
      // the next safe point. on_peer_rejoin() performs the actual bump so
      // a racing explicit REJOIN is not mistaken for a duplicate.
      pending_rejoin_cleanup_.emplace_back(msg.from, msg.incarnation);
    } else if (seen == 0) {
      peer_incarnations_[msg.from] = msg.incarnation;  // first contact
    }
  }
  // A frame addressed at OUR prior incarnation answers a request (or
  // targets session state) of the dead predecessor: toxic either way.
  if (msg.to_incarnation != 0 && msg.to_incarnation < incarnation_) stale = true;
  if (stale) {
    ++stats_.fenced_stale_messages;
    telemetry_.count("recovery.fenced_stale_messages",
                     "peer=" + std::to_string(msg.from));
    FlightEvent fe;
    fe.ts_ns = vnow_ns();
    fe.kind = FlightEventKind::kFence;
    fe.msg_type = static_cast<std::uint8_t>(msg.type);
    fe.peer = msg.from;
    fe.session = msg.session;
    fe.seq = msg.seq;
    fe.arg = static_cast<std::int64_t>(msg.incarnation);
    telemetry_.flight().record(fe);
    // The black box for "who kept talking to a dead life": dump once per
    // {peer, stamped incarnation} so a retransmit storm of stale frames
    // yields one dump, not hundreds.
    const std::uint64_t fence_key =
        (static_cast<std::uint64_t>(msg.from) << 32) | msg.incarnation;
    if (fence_dumped_.insert(fence_key).second) {
      telemetry_.flight().dump("incarnation_fence", vnow_ns());
    }
    SRPC_WARN << name_ << ": fencing stale " << to_string(msg.type)
              << " seq=" << msg.seq << " from space " << msg.from << " (inc "
              << msg.incarnation << " -> " << msg.to_incarnation
              << "; we are inc " << incarnation_ << ")";
  }
  return stale;
}

void Runtime::on_peer_rejoin(SpaceId peer, std::uint32_t incarnation,
                             const std::vector<RecoveryDecision>& decisions,
                             bool authoritative) {
  const auto known = peer_incarnations_.find(peer);
  if (known != peer_incarnations_.end() && known->second >= incarnation) {
    // Duplicate or stale announcement — unless the only processing this
    // incarnation ever got here was the implicit (decision-less) cleanup:
    // its stages were left in doubt, and the delayed real REJOIN carrying
    // the decision log must still resolve them.
    const auto pending = awaiting_rejoin_decisions_.find(peer);
    if (!authoritative || pending == awaiting_rejoin_decisions_.end() ||
        pending->second != incarnation || known->second != incarnation) {
      return;
    }
  }
  peer_incarnations_[peer] = incarnation;
  ++stats_.rejoins_served;
  telemetry_.flight().event(FlightEventKind::kRejoin, vnow_ns(), peer,
                            authoritative ? "rejoin served"
                                          : "implicit cleanup",
                            static_cast<std::int64_t>(incarnation));

  bool stages_in_doubt = false;
  if (authoritative) {
    awaiting_rejoin_decisions_.erase(peer);
    // Resolve the in-doubt stages the prior life coordinated here against
    // the decision log its replay recovered: a logged commit rolls the
    // stage forward exactly as its lost WB_COMMIT would have; anything else
    // (abort decision, or no decision at all — the crash hit before phase
    // one finished) rolls back.
    for (auto it = shadow_commits_.begin(); it != shadow_commits_.end();) {
      if (it->second.from != peer) {
        ++it;
        continue;
      }
      const SessionId session = it->first;
      bool commit = false;
      for (const RecoveryDecision& d : decisions) {
        if (d.session == session && d.epoch == it->second.epoch) {
          commit = d.committed;
          break;
        }
      }
      if (commit) {
        it->second.staged.reset_cursor();
        Status applied = apply_modified_set(it->second.staged, peer);
        if (applied.is_ok()) {
          committed_epochs_[session] = it->second.epoch;
          ++stats_.in_doubt_resolved_commit;
          if (recovery_ != nullptr) {
            recovery_->note_commit(session, it->second.epoch);
          }
          (void)heap_.promote_session(session);
          arbiter_.commit(session);
        } else {
          SRPC_ERROR << name_ << ": in-doubt commit of session " << session
                     << " failed: " << applied.to_string();
        }
      } else {
        ++stats_.in_doubt_resolved_abort;
        const std::uint64_t reclaimed = heap_.reclaim_session(session);
        stats_.orphan_bytes_reclaimed += reclaimed;
        arbiter_.release(session);
      }
      tombstone_session(session);
      committed_epochs_.erase(session);
      it = shadow_commits_.erase(it);
    }
  } else {
    // Implicit cleanup (fence_stale saw newer-incarnation traffic before
    // any REJOIN): no decision log, so the prior life's stages stay staged
    // and in doubt. Stale-incarnation fencing already refuses every frame
    // that could touch them; the REJOIN that eventually lands — let through
    // the dedup above — resolves them. Until then their sessions' orphan
    // storage must survive too: a commit decision may yet promote it.
    for (const auto& [session, shadow] : shadow_commits_) {
      if (shadow.from == peer) {
        stages_in_doubt = true;
        break;
      }
    }
    if (stages_in_doubt) {
      awaiting_rejoin_decisions_[peer] = incarnation;
      SRPC_WARN << name_ << ": space " << peer << " reincarnated (inc "
                << incarnation << ") before its REJOIN was seen; keeping its "
                << "in-doubt stage(s) until the decision log arrives";
    }
  }

  // Sessions of the dead life whose INVALIDATE never arrived still hold
  // state here. Settle them like any dead session: their cached data and
  // travelling updates die with them, and the single-session busy check
  // stops fencing the new life out. The session-id partition tells the
  // lives apart: the implicit cleanup can run after the successor's own
  // sessions started being served here, and those must survive.
  std::vector<SessionId> prior_life;
  sessions_.for_each([&](const SessionState& st) {
    if (st.id != kNoSession && static_cast<SpaceId>(st.id >> 32) == peer &&
        (st.id & 0xFFFFFFFFull) < ((static_cast<std::uint64_t>(incarnation) - 1) << 24)) {
      prior_life.push_back(st.id);
    }
  });
  for (const SessionId id : prior_life) {
    tombstone_session(id);
    close_session(id);
  }

  // Flush every other trace of the prior life: cached pages it served
  // (the successor replays its heap, but our leases were granted by the
  // dead incarnation), its lock-table entries, its uncommitted orphan
  // storage, the request-dedup window (the new life's seq counter restarts
  // from one), and every in-flight request still addressed at it.
  const std::size_t revoked = revoke_source(peer);
  if (revoked > 0) ++stats_.leases_expired;
  arbiter_.release_space(peer);
  // Orphan storage is reclaimed only once the stages are resolved: a
  // pending commit decision may promote some of it (the explicit path ran
  // the resolution loop above, so committed sessions are already
  // promoted and out of reach here).
  std::uint64_t reclaimed = 0;
  if (!stages_in_doubt) {
    reclaimed = heap_.reclaim_owned_by(peer);
    stats_.orphan_bytes_reclaimed += reclaimed;
  }
  served_requests_.erase(peer);
  const std::size_t expired = endpoint_.expire_peer(
      peer, unavailable("space " + std::to_string(peer) +
                        " reincarnated; request of its prior life expired"));
  // Death (if it was ever detected here) is no longer terminal, and the
  // NEXT death of the new incarnation must run containment afresh.
  dead_cleaned_.erase(peer);
  detector_.note_rejoin(peer);
  SRPC_WARN << name_ << ": space " << peer << " rejoined as incarnation "
            << incarnation << "; revoked " << revoked << " pages, reclaimed "
            << reclaimed << " orphaned bytes, expired " << expired
            << " in-flight requests";
  if (telemetry_.tracing()) {
    telemetry_.annotate("peer rejoin: space " + std::to_string(peer) +
                        " incarnation " + std::to_string(incarnation));
  }
}

// REJOIN payload: incarnation u32 | n u32 | n x {session u64, epoch u64,
// committed u32}. REJOIN_ACK is empty.
Status Runtime::serve_rejoin(Message msg) {
  xdr::Decoder dec(msg.payload);
  auto inc = dec.get_u32();
  if (!inc) return send_error(msg, inc.status());
  auto n = dec.get_count(20);
  if (!n) return send_error(msg, n.status());
  std::vector<RecoveryDecision> decisions;
  decisions.reserve(n.value());
  for (std::uint32_t i = 0; i < n.value(); ++i) {
    auto session = dec.get_u64();
    if (!session) return send_error(msg, session.status());
    auto epoch = dec.get_u64();
    if (!epoch) return send_error(msg, epoch.status());
    auto committed = dec.get_u32();
    if (!committed) {
      return send_error(msg, committed.status());
    }
    decisions.push_back(RecoveryDecision{session.value(), epoch.value(),
                                         committed.value() != 0});
  }
  on_peer_rejoin(msg.from, inc.value(), decisions);
  return endpoint_.send(reply_to(msg, MessageType::kRejoinAck));
}

Status Runtime::announce_rejoin() {
  if (recovery_ == nullptr || incarnation_ == 0) return Status::ok();
  const std::vector<RecoveryDecision> decisions = recovery_->decisions();
  std::vector<SpaceId> peers;
  for (const SpaceId peer : directory_()) {
    if (peer != self_) peers.push_back(peer);
  }
  // Idempotent: on_peer_rejoin dedups by {peer, incarnation}, so a
  // retransmitted announcement only re-acks. Best-effort per peer.
  Status worst = Status::ok();
  (void)fan_out(
      peers.size(), MessageType::kRejoinAck, /*parallel=*/false,
      full_dispatcher_,
      [&](std::size_t i) {
        ++stats_.rejoins_sent;
        Message msg = request(MessageType::kRejoin, peers[i], kNoSession);
        xdr::Encoder enc(msg.payload);
        enc.put_u32(incarnation_);
        enc.put_u32(static_cast<std::uint32_t>(decisions.size()));
        for (const RecoveryDecision& d : decisions) {
          enc.put_u64(d.session);
          enc.put_u64(d.epoch);
          enc.put_u32(d.committed ? 1u : 0u);
        }
        return msg;
      },
      [&](std::size_t i, Result<Message> ack) {
        if (!ack) {
          SRPC_WARN << name_ << ": rejoin announcement to space " << peers[i]
                    << " failed: " << ack.status().to_string();
          if (worst.is_ok()) worst = ack.status();
        }
        return Status::ok();
      });
  return worst;
}

Status Runtime::recover_from_log() {
  if (recovery_ == nullptr) return Status::ok();
  const std::vector<RecoveryLog::Record> journal = recovery_->snapshot();
  // The latest checkpoint supersedes everything before it — but the
  // commit-epoch dedup map and session tombstones must survive across the
  // whole history: a retransmitted WB_COMMIT (or straggler of a settled
  // session) re-acks against state the image alone cannot carry.
  std::size_t start = 0;
  const RecoveryLog::Record* checkpoint = nullptr;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    if (journal[i].kind == RecoveryLog::Kind::kCheckpoint) {
      checkpoint = &journal[i];
      start = i + 1;
    }
  }
  if (checkpoint != nullptr) {
    SRPC_RETURN_IF_ERROR(RecoveryLog::restore_checkpoint(*checkpoint, heap_));
  }
  for (std::size_t i = 0; i < start; ++i) {
    const RecoveryLog::Record& r = journal[i];
    if (r.kind == RecoveryLog::Kind::kCommit) {
      std::uint64_t& epoch = committed_epochs_[r.session];
      epoch = std::max(epoch, r.epoch);
    } else if (r.kind == RecoveryLog::Kind::kSettle) {
      committed_epochs_.erase(r.session);
      tombstone_session(r.session);
    }
  }

  std::size_t replayed = 0;
  for (std::size_t i = start; i < journal.size(); ++i) {
    const RecoveryLog::Record& r = journal[i];
    ++replayed;
    switch (r.kind) {
      case RecoveryLog::Kind::kAlloc: {
        auto* base = reinterpret_cast<std::uint8_t*>(r.addr);
        SRPC_RETURN_IF_ERROR(
            heap_.restore(base, r.type, r.count, r.size, r.peer, r.session));
        // A fresh allocation was zeroed; any bytes it gained later arrive
        // through the commit records that follow.
        std::memset(base, 0, r.size);
        break;
      }
      case RecoveryLog::Kind::kFree: {
        Status freed = heap_.free(reinterpret_cast<void*>(r.addr));
        if (!freed.is_ok()) {
          SRPC_WARN << name_ << ": replayed free failed: " << freed.to_string();
        }
        break;
      }
      case RecoveryLog::Kind::kPrepare: {
        // Re-stage, in doubt: the decision records (and peers' REJOIN
        // resolution) settle it.
        ShadowCommit& shadow = shadow_commits_[r.session];
        if (shadow.epoch <= r.epoch) {
          shadow.epoch = r.epoch;
          shadow.from = r.peer;
          shadow.staged = ByteBuffer();
          shadow.staged.append({r.bytes.data(), r.bytes.size()});
        }
        break;
      }
      case RecoveryLog::Kind::kCommit: {
        auto it = shadow_commits_.find(r.session);
        if (it != shadow_commits_.end() && it->second.epoch == r.epoch) {
          it->second.staged.reset_cursor();
          SRPC_RETURN_IF_ERROR(
              apply_modified_set(it->second.staged, it->second.from));
          shadow_commits_.erase(it);
        }
        std::uint64_t& epoch = committed_epochs_[r.session];
        epoch = std::max(epoch, r.epoch);
        break;
      }
      case RecoveryLog::Kind::kAbort: {
        auto it = shadow_commits_.find(r.session);
        if (it != shadow_commits_.end() && it->second.epoch <= r.epoch) {
          shadow_commits_.erase(it);
        }
        break;
      }
      case RecoveryLog::Kind::kSettle: {
        if (r.aborted) {
          stats_.orphan_bytes_reclaimed += heap_.reclaim_session(r.session);
        } else {
          (void)heap_.promote_session(r.session);
        }
        shadow_commits_.erase(r.session);
        committed_epochs_.erase(r.session);
        tombstone_session(r.session);
        break;
      }
      case RecoveryLog::Kind::kDecision:
        break;  // shipped verbatim by announce_rejoin()
      case RecoveryLog::Kind::kCheckpoint:
        break;  // superseded: only the last image is restored
    }
  }
  stats_.recovery_replays += replayed;
  telemetry_.flight().event(FlightEventKind::kRecoveryReplay, vnow_ns(),
                            kInvalidSpaceId,
                            checkpoint != nullptr ? "from checkpoint"
                                                  : "full history",
                            static_cast<std::int64_t>(replayed));
  // Replay re-applied commits through the normal incorporate path, which
  // records them as sessionless travelling home updates; the recovered
  // sessions are settled history, not live state.
  close_session(kNoSession);
  SRPC_WARN << name_ << ": incarnation " << incarnation_ << " replayed "
            << replayed << " log records ("
            << (checkpoint != nullptr ? "from checkpoint" : "full history")
            << "); " << shadow_commits_.size() << " stage(s) in doubt";
  return Status::ok();
}

void Runtime::checkpoint_now() {
  if (recovery_ == nullptr) return;
  recovery_->checkpoint(heap_);
  // The image captures the heap only; staged prepares live in
  // shadow_commits_ and replay re-stages only kPrepare records appended
  // AFTER the last checkpoint. Re-journal every stage still in doubt so a
  // post-checkpoint kCommit replay finds its bytes — otherwise a prepare
  // logged before the image and committed after it silently no-ops on
  // replay, losing a committed write-back.
  for (const auto& [session, shadow] : shadow_commits_) {
    recovery_->note_prepare(session, shadow.epoch, shadow.from,
                            shadow.staged.data(), shadow.staged.size());
  }
  ++stats_.checkpoints_taken;
  telemetry_.flight().event(FlightEventKind::kCheckpoint, vnow_ns(),
                            kInvalidSpaceId, {},
                            static_cast<std::int64_t>(heap_.live_allocations()));
  settles_since_checkpoint_ = 0;
}

void Runtime::maybe_checkpoint() {
  if (recovery_ == nullptr || checkpoint_interval_ == 0) return;
  if (++settles_since_checkpoint_ < checkpoint_interval_) return;
  checkpoint_now();
}

// ---------------------------------------------------------------------------
// Fetch path (PageFetcher)
// ---------------------------------------------------------------------------

Result<ByteBuffer> Runtime::fetch(SpaceId home, std::span<const LongPointer> pointers,
                                  std::uint64_t closure_budget,
                                  SessionId session) {
  // The fetch belongs to the session owning the pages being filled;
  // sessionless pages ride whatever session scope is current.
  const SessionId sid = session != kNoSession ? session : current_session();
  Message msg = request(MessageType::kFetch, home, sid);
  encode_fetch_frame(msg.payload, pointers, closure_budget);
  // Restricted await: we may be inside the SIGSEGV handler, and with a
  // single active thread nothing but this reply can legitimately arrive.
  // Fetch is a pure read, so a lost reply is recovered by retransmitting
  // under the same seq; the home serves it again and any late duplicate
  // reply is absorbed by seq matching.
  auto reply = guarded_roundtrip(std::move(msg), MessageType::kFetchReply,
                                 nullptr, /*idempotent=*/true);
  if (!reply) return reply.status();
  // We now hold this source's bytes: start (or refresh) its lease.
  renew_lease(home);
  return std::move(reply.value().payload);
}

void Runtime::charge_fault() {
  if (sim_ != nullptr) sim_->charge_fault();
}

Result<ByteBuffer> Runtime::deref_remote(const LongPointer& pointer) {
  Message msg = request(MessageType::kDeref, pointer.space, current_session());
  xdr::Encoder enc(msg.payload);
  encode_long_pointer(enc, pointer);
  // A dereference is a read: safe to retransmit.
  auto reply = guarded_roundtrip(std::move(msg), MessageType::kDerefReply,
                                 full_dispatcher_, /*idempotent=*/true);
  if (!reply) return reply.status();
  return std::move(reply.value().payload);
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

Result<Message> Runtime::build_call(SpaceId target, const std::string& proc,
                                    const ByteBuffer& args,
                                    std::span<const std::uint64_t> pointer_roots,
                                    std::vector<ShippedRecord>& shipped) {
  if (target == self_) {
    return invalid_argument("call to own address space");
  }
  // Safe point: run deferred dead-peer containment and lease checks before
  // the activity moves.
  poll_failures();
  // The activity is about to move: flush batched memory operations first
  // (provisional identities must not cross in the modified set), then
  // attach the travelling modified data set and the arguments' closure.
  SRPC_RETURN_IF_ERROR(flush_alloc_batches());

  Message msg = request(MessageType::kCall, target, current_session());
  xdr::Encoder enc(msg.payload);
  enc.put_string(proc);
  SRPC_RETURN_IF_ERROR(attach_modified_set(msg.payload, target,
                                           /*write_back=*/false,
                                           /*encoded=*/nullptr, &shipped));
  SRPC_RETURN_IF_ERROR(attach_closures(msg.payload, pointer_roots));
  msg.payload.append(args.view());
  ++stats_.calls_sent;
  return msg;
}

Result<ByteBuffer> Runtime::finish_call(SpaceId target,
                                        const std::vector<ShippedRecord>& shipped,
                                        Result<Message> reply) {
  if (!reply) return reply.status();
  // The callee saw (and now holds) everything the call shipped.
  commit_shipped(target, shipped);
  ByteBuffer payload = std::move(reply.value().payload);
  SRPC_RETURN_IF_ERROR(apply_modified_set(payload, target));
  SRPC_RETURN_IF_ERROR(apply_closures(payload));
  // Cursor now rests at the marshalled results.
  return payload;
}

Result<ByteBuffer> Runtime::call_raw(SpaceId target, const std::string& proc,
                                     ByteBuffer args,
                                     std::span<const std::uint64_t> pointer_roots) {
  std::vector<ShippedRecord> shipped;
  auto msg = build_call(target, proc, args, pointer_roots, shipped);
  if (!msg) return msg.status();
  // Full re-entrant service while blocked: nested calls back into this
  // space, fetches against our heap, etc. A CALL executes arbitrary user
  // code, so it is never retransmitted — on a deadline the caller aborts
  // the session instead (at-most-once execution; the receiver additionally
  // absorbs duplicated deliveries by request id).
  return finish_call(target, shipped,
                     guarded_roundtrip(std::move(msg).value(),
                                       MessageType::kReturn, full_dispatcher_,
                                       /*idempotent=*/false));
}

Result<Runtime::RawCallFuture> Runtime::call_async(
    SpaceId target, const std::string& proc, ByteBuffer args,
    std::span<const std::uint64_t> pointer_roots) {
  // Each async call ships the modified set as of ITS issue point.
  std::vector<ShippedRecord> shipped;
  auto msg = build_call(target, proc, args, pointer_roots, shipped);
  if (!msg) return msg.status();
  const std::uint64_t seq = msg.value().seq;
  // At-most-once semantics are unchanged: a CALL is never retransmitted
  // (idempotent=false caps it at one attempt against the full deadline).
  auto promise = std::make_shared<Promise<Message>>();
  auto fut = promise->get_future();
  auto issued = issue_guarded(std::move(msg).value(), MessageType::kReturn,
                              /*idempotent=*/false, promise);
  if (!issued) return issued.status();
  // get() drives the shared endpoint with full re-entrant service — the
  // future always blocks on the worker's ground stack, never in a handler.
  promise->set_pump([this](std::chrono::steady_clock::time_point deadline) {
    return pump_guarded(deadline);
  });
  // An abandoned future cancels its slot: the completion hooks settle with
  // UNAVAILABLE (closing the client span) and a late reply is absorbed as
  // stale by seq matching.
  promise->set_on_drop([this, seq] { (void)endpoint_.cancel(seq); });
  return RawCallFuture(this, current_session(), target, seq,
                       std::move(shipped), std::move(fut));
}

Result<ByteBuffer> Runtime::RawCallFuture::get(
    std::chrono::steady_clock::time_point deadline) {
  // Re-pin the issuing session: the reply's side effects (ship-state
  // commit, modified set, closure incorporation) must land in the same
  // session scope the call was issued under, whatever scope the caller
  // happens to be in when it finally collects.
  ScopedSession scope(*rt_, session_);
  return rt_->finish_call(target_, shipped_, fut_.get(deadline));
}

Status Runtime::serve_call(Message msg) {
  ++stats_.calls_served;
  // One RPC session at a time unless multi-session: the paper's model never
  // interleaves two sessions' activity in one space.
  if (!multi_session_ && held_by_other_session(msg.session)) {
    return send_error(
        msg, failed_precondition("space busy: cache holds data of another RPC session"));
  }
  xdr::Decoder dec(msg.payload);
  auto proc = dec.get_string();
  if (!proc) {
    return send_error(msg, proc.status());
  }
  Status applied = apply_modified_set(msg.payload, msg.from);
  if (!applied.is_ok()) {
    return send_error(
        msg, Status(applied.code(), "modified-set: " + applied.message()));
  }
  applied = apply_closures(msg.payload);
  if (!applied.is_ok()) {
    return send_error(
        msg, Status(applied.code(), "closures: " + applied.message()));
  }

  const RawHandler* handler = services_.find(proc.value());
  if (handler == nullptr) {
    return send_error(msg, not_found("no such procedure: " + proc.value()));
  }

  // The dispatch-level session scope already pins msg.session, so the
  // handler's nested calls/fetches/allocations ride the caller's session.
  CallContext ctx{*this, msg.session, msg.from};
  ByteBuffer results;
  std::vector<std::uint64_t> result_roots;
  Status handled = (*handler)(ctx, msg.payload, results, result_roots);
  if (handled.is_ok()) {
    handled = flush_alloc_batches();
  }
  if (!handled.is_ok()) {
    return send_error(msg, handled);
  }

  Message reply = reply_to(msg, MessageType::kReturn);
  std::vector<ShippedRecord> shipped;
  Status built = attach_modified_set(reply.payload, msg.from,
                                     /*write_back=*/false,
                                     /*encoded=*/nullptr, &shipped);
  if (built.is_ok()) built = attach_closures(reply.payload, result_roots);
  if (!built.is_ok()) {
    return send_error(msg, built);
  }
  reply.payload.append(results.view());
  Status sent = endpoint_.send(std::move(reply));
  if (sent.is_ok()) commit_shipped(msg.from, shipped);
  return sent;
}

Status Runtime::serve_fetch(Message msg) {
  ++stats_.fetches_served;
  xdr::Decoder dec(msg.payload);
  auto budget = dec.get_u64();
  if (!budget) return send_error(msg, budget.status());
  auto wide = dec.get_u32();
  if (!wide) return send_error(msg, wide.status());
  auto base = dec.get_u64();
  if (!base) return send_error(msg, base.status());
  auto count = dec.get_count(wide.value() != 0 ? 8 : 4);
  if (!count) return send_error(msg, count.status());

  std::vector<std::uint64_t> roots;
  roots.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    if (wide.value() != 0) {
      auto addr = dec.get_u64();
      if (!addr) return send_error(msg, addr.status());
      roots.push_back(addr.value());
    } else {
      auto delta = dec.get_u32();
      if (!delta) return send_error(msg, delta.status());
      roots.push_back(base.value() + delta.value());
    }
  }

  if (multi_session_ && msg.session != kNoSession) {
    // Record what the session observed: shared lock + version snapshot,
    // validated against its write manifest at WB_PREPARE time. Reads are
    // never refused — conflicts surface at commit, not here.
    for (const std::uint64_t addr : roots) {
      const ManagedHeap::Record* record =
          heap_.find(reinterpret_cast<const void*>(addr));
      if (record != nullptr) {
        arbiter_.note_read(msg.session,
                           reinterpret_cast<std::uint64_t>(record->base));
      }
    }
  }

  auto packed = packer_.pack(roots, budget.value(), /*require_roots=*/true);
  if (!packed) {
    return send_error(msg, packed.status());
  }

  Message reply = reply_to(msg, MessageType::kFetchReply);
  xdr::Encoder enc(reply.payload);
  enc.put_u32(static_cast<std::uint32_t>(packed.value().groups.size()));
  for (const auto& [space, refs] : packed.value().groups) {
    Status encoded = encode_graph_payload(codec_, arch_, space, refs, *this,
                                          reply.payload);
    if (!encoded.is_ok()) {
      return send_error(msg, encoded);
    }
  }
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_alloc_batch(Message msg) {
  ++stats_.alloc_batches_served;
  xdr::Decoder dec(msg.payload);
  auto nalloc = dec.get_u32();
  if (!nalloc) return send_error(msg, nalloc.status());

  Message reply = reply_to(msg, MessageType::kAllocReply);
  xdr::Encoder enc(reply.payload);
  enc.put_u32(nalloc.value());

  for (std::uint32_t i = 0; i < nalloc.value(); ++i) {
    auto prov = dec.get_u64();
    if (!prov) return send_error(msg, prov.status());
    auto type = dec.get_u32();
    if (!type) return send_error(msg, type.status());
    auto mem = heap_.allocate(type.value(), 1);
    if (!mem) return send_error(msg, mem.status());
    // Track remote provenance until the session settles: a committed
    // session promotes the storage to durable home data, an aborted or
    // orphaned one gets it reclaimed.
    const std::uint64_t addr = reinterpret_cast<std::uint64_t>(mem.value());
    (void)heap_.tag_owner(addr, msg.from, msg.session);
    if (recovery_ != nullptr) {
      // Logged before the grant is acknowledged: the requester is about to
      // hold long pointers into this storage, so a reincarnation must be
      // able to re-register the exact range.
      const ManagedHeap::Record* rec = heap_.find_base(addr);
      recovery_->note_alloc(addr, rec->type, rec->count, rec->size, msg.from,
                            msg.session);
    }
    enc.put_u64(prov.value());
    enc.put_u64(addr);
  }

  auto nfree = dec.get_u32();
  if (!nfree) return send_error(msg, nfree.status());
  for (std::uint32_t i = 0; i < nfree.value(); ++i) {
    auto addr = dec.get_u64();
    if (!addr) return send_error(msg, addr.status());
    Status freed = heap_.free(reinterpret_cast<void*>(addr.value()));
    if (!freed.is_ok()) {
      SRPC_WARN << "remote free failed: " << freed.to_string();
    } else if (recovery_ != nullptr) {
      recovery_->note_free(addr.value());
    }
  }
  return endpoint_.send(std::move(reply));
}

Status Runtime::serve_invalidate(Message msg) {
  // An optional flag distinguishes a committed end (0) from an abort (1);
  // the legacy empty payload means a normal end.
  bool aborted = false;
  if (msg.payload.remaining() > 0) {
    xdr::Decoder dec(msg.payload);
    auto flag = dec.get_u32();
    if (flag) aborted = flag.value() != 0;
  }
  SessionState* st = sessions_.find(msg.session);
  if (st != nullptr && st->local) {
    // A peer cascade-forwarded the invalidation back to the session's own
    // coordinator while its ground is mid-teardown. The ground owns the
    // unwind — closing the state here would leave end_session()/
    // abort_session() holding dangling references — so only re-ack.
    return endpoint_.send(reply_to(msg, MessageType::kInvalidateAck));
  }
  // Home-side arbitration state (locks, observed versions, stage marks)
  // dies with the session whether it committed or aborted.
  arbiter_.release(msg.session);
  std::vector<SpaceId> forward;
  if (st != nullptr) {
    if (st->span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().finish(st->span, telemetry_.now_ns(), !aborted);
    }
    // Multi-session cascade: peers this space pulled into the session on
    // the closing ground's behalf may never have heard from that ground
    // directly, so the whole reachable participant graph must converge.
    if (multi_session_) {
      for (const SpaceId peer : st->touched) {
        if (peer != msg.from) forward.push_back(peer);
      }
    }
  }
  // Invalidation is scoped to its session: data another (still open)
  // session put here stays.
  close_session(msg.session);
  (void)invalidate_peers(msg.session, forward, aborted, /*parallel=*/false,
                         full_dispatcher_, /*best_effort=*/true);
  // Settle the session's extended_malloc storage in our heap: a committed
  // session's allocations become durable home data; an aborted session's
  // are orphans and are reclaimed. Both operations are idempotent, so
  // retransmitted INVALIDATEs are harmless.
  if (aborted) {
    const std::uint64_t reclaimed = heap_.reclaim_session(msg.session);
    stats_.orphan_bytes_reclaimed += reclaimed;
    if (reclaimed > 0) {
      SRPC_WARN << name_ << ": reclaimed " << reclaimed
                << " orphaned bytes of aborted session " << msg.session;
    }
  } else {
    (void)heap_.promote_session(msg.session);
  }
  // Any staged (never committed) write-back of this session dies with it.
  shadow_commits_.erase(msg.session);
  committed_epochs_.erase(msg.session);
  // The session is over: refuse any straggler (delayed or replayed
  // message) that still carries its id, so it cannot repopulate the cache.
  // Retransmitted INVALIDATEs still land here and are acked again.
  if (recovery_ != nullptr && !is_dead_session(msg.session)) {
    recovery_->note_settle(msg.session, aborted);
  }
  tombstone_session(msg.session);
  Status sent = endpoint_.send(reply_to(msg, MessageType::kInvalidateAck));
  // Settlement is the checkpoint cadence: the session's effects are final
  // and the log up to here can be superseded by one heap image.
  maybe_checkpoint();
  return sent;
}

// ---------------------------------------------------------------------------
// Two-phase write-back (home side) and failure-detector probes
// ---------------------------------------------------------------------------

Status Runtime::serve_wb_prepare(Message msg) {
  ++stats_.wb_prepares_served;
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg, epoch.status());

  // Multi-session prepares carry a write manifest (the home addresses the
  // batch will overwrite) ahead of the modified-set section. The manifest
  // must be consumed even on a duplicate so the stage cursor lands on the
  // section either way.
  std::vector<std::uint64_t> writes;
  if (multi_session_) {
    auto n = dec.get_count(8);
    if (!n) return send_error(msg, n.status());
    writes.reserve(n.value());
    for (std::uint32_t i = 0; i < n.value(); ++i) {
      auto addr = dec.get_u64();
      if (!addr) return send_error(msg, addr.status());
      // Canonicalise interior addresses to the object base the lock table
      // keys on. An address we no longer host (freed, or a blind create)
      // has no version to defend and is skipped.
      const ManagedHeap::Record* record =
          heap_.find(reinterpret_cast<const void*>(addr.value()));
      if (record != nullptr) {
        writes.push_back(reinterpret_cast<std::uint64_t>(record->base));
      }
    }
  }

  const auto committed = committed_epochs_.find(msg.session);
  const bool already_applied =
      committed != committed_epochs_.end() && committed->second >= epoch.value();
  if (!already_applied && multi_session_) {
    // Arbitration gate: stale reads or a wound lose here, before anything
    // is staged, and the ground aborts + retries the whole session. The
    // gate is timed as a "concurrency.lock" span so the critical-path
    // analyzer can attribute commit latency to lock arbitration.
    const std::uint64_t lock_start = telemetry_.now_ns();
    SpanRecorder::Handle lock_span = SpanRecorder::kNoSpan;
    if (telemetry_.tracing()) {
      lock_span = telemetry_.tracer().start_local(
          "lock validate session " + std::to_string(msg.session),
          "concurrency.lock", lock_start);
    }
    Status granted = arbiter_.validate_prepare(msg.session, writes);
    const std::uint64_t lock_end = telemetry_.now_ns();
    if (lock_span != SpanRecorder::kNoSpan) {
      telemetry_.tracer().finish(lock_span, lock_end, granted.is_ok());
    }
    telemetry_.hist("concurrency.lock_wait_ns").record(lock_end - lock_start);
    if (!granted.is_ok()) {
      telemetry_.flight().event(FlightEventKind::kWbConflict, vnow_ns(),
                                msg.from, "prepare refused", 0, msg.session);
      return send_error(msg, granted);
    }
  }
  if (!already_applied) {
    ShadowCommit& shadow = shadow_commits_[msg.session];
    if (shadow.epoch <= epoch.value()) {
      // Stage (or re-stage — retransmits and duplicates carry identical
      // bytes) the modified-set section. Nothing is applied yet.
      shadow.epoch = epoch.value();
      shadow.from = msg.from;
      // Shm-lane prepare: the slice borrows the arena region and shares
      // its pin, so staging costs zero bytes and the region stays alive
      // exactly until WB_COMMIT/WB_ABORT (or dead-peer cleanup) erases
      // this shadow entry. Byte-lane prepare: a plain copy, as before.
      shadow.staged = msg.payload.slice_remaining();
      if (recovery_ != nullptr) {
        // Journal the stage before it is acknowledged: once the ack lands
        // the coordinator may decide to commit, and a reincarnation of
        // this home must still hold the bytes to roll forward.
        recovery_->note_prepare(msg.session, epoch.value(), msg.from,
                                shadow.staged.data(), shadow.staged.size());
      }
    }
    // A prepare older than the current stage is a straggler from an
    // abandoned attempt: ignore its bytes but still ack (the retransmit
    // machinery only needs to hear that *a* prepare landed).
  }

  return endpoint_.send(reply_to(msg, MessageType::kWbPrepareAck));
}

Status Runtime::serve_wb_commit(Message msg) {
  ++stats_.wb_commits_served;
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg, epoch.status());

  const auto committed = committed_epochs_.find(msg.session);
  if (committed != committed_epochs_.end() && committed->second >= epoch.value()) {
    // Duplicate or retransmitted commit: already applied, just re-ack.
  } else {
    auto it = shadow_commits_.find(msg.session);
    if (it == shadow_commits_.end() || it->second.epoch != epoch.value()) {
      return send_error(
          msg, failed_precondition("no staged write-back for session " +
                              std::to_string(msg.session) + " epoch " +
                              std::to_string(epoch.value())));
    }
    it->second.staged.reset_cursor();  // a failed earlier apply may have read
    Status applied = apply_modified_set(it->second.staged, it->second.from);
    if (!applied.is_ok()) {
      return send_error(msg, applied);
    }
    committed_epochs_[msg.session] = epoch.value();
    shadow_commits_.erase(it);
    if (recovery_ != nullptr) {
      recovery_->note_commit(msg.session, epoch.value());
    }
    // The write-back is durable: bump the versions of everything it
    // touched so later validations see the new world, and release this
    // session's locks and observations (none without arbitration).
    arbiter_.commit(msg.session);
  }

  return endpoint_.send(reply_to(msg, MessageType::kWbCommitAck));
}

Status Runtime::serve_wb_abort(Message msg) {
  xdr::Decoder dec(msg.payload);
  auto epoch = dec.get_u64();
  if (!epoch) return send_error(msg, epoch.status());

  auto it = shadow_commits_.find(msg.session);
  // Drop only the stage the abort names (or older): a delayed abort from an
  // abandoned attempt must not kill a newer attempt's stage.
  if (it != shadow_commits_.end() && it->second.epoch <= epoch.value()) {
    ++stats_.wb_aborts_served;
    shadow_commits_.erase(it);
    if (recovery_ != nullptr) {
      recovery_->note_abort(msg.session, epoch.value());
    }
    // Only an abort that actually dropped a stage releases arbitration
    // state: a straggler from an abandoned attempt must not free the locks
    // a newer prepare of the same session just validated under.
    arbiter_.release(msg.session);
  }
  // Always ack — aborts must be re-ackable even after the stage is long
  // gone (and even for tombstoned sessions).
  return endpoint_.send(reply_to(msg, MessageType::kWbAbortAck));
}

Status Runtime::serve_ping(Message msg) {
  return endpoint_.send(reply_to(msg, MessageType::kPong));
}

Status Runtime::serve_deref(Message msg) {
  ++stats_.derefs_served;
  xdr::Decoder dec(msg.payload);
  auto lp = decode_long_pointer(dec);
  if (!lp) return send_error(msg, lp.status());
  if (lp.value().space != self_) {
    return send_error(msg, invalid_argument("deref for data homed elsewhere"));
  }
  const ManagedHeap::Record* record = heap_.find_base(lp.value().address);
  if (record == nullptr) {
    return send_error(
        msg, not_found("deref of unknown datum: " + lp.value().to_string()));
  }
  if (multi_session_ && msg.session != kNoSession) {
    // The session observed this object's current version; a later commit
    // by anyone else invalidates that read at WB_PREPARE time.
    arbiter_.note_read(msg.session,
                       reinterpret_cast<std::uint64_t>(record->base));
  }
  Message reply = reply_to(msg, MessageType::kDerefReply);
  xdr::Encoder enc(reply.payload);
  LongPointerFieldCodec pointer_codec(*this);
  Status encoded =
      codec_.encode(arch_, record->type, record->base, enc, pointer_codec);
  if (!encoded.is_ok()) {
    return send_error(msg, encoded);
  }
  return endpoint_.send(std::move(reply));
}

// ---------------------------------------------------------------------------
// Sessions (paper §3.1, §3.4)
// ---------------------------------------------------------------------------

Result<SessionId> Runtime::begin_session() {
  if (!multi_session_ && session_ != kNoSession) {
    return failed_precondition("session already active");
  }
  if (incarnation_ != 0) {
    // Recovery worlds partition the 32-bit counter field by incarnation
    // (2^24 sessions per life, 256 lives): a prior life's ids are
    // tombstoned at every home it touched, so minting one again would be
    // refused as a dead straggler. Running off the end of the partition —
    // or past life 256, where the seed itself exceeds 32 bits — must fail
    // loudly instead of bleeding into a neighbouring life's ids or
    // corrupting the space-id field that `session >> 32` recovers.
    const std::uint64_t next = session_counter_ + 1;
    if (next > 0xFFFFFFFFull ||
        (next >> 24) != static_cast<std::uint64_t>(incarnation_) - 1) {
      return resource_exhausted(
          "session-id partition exhausted for incarnation " +
          std::to_string(incarnation_) + " of space " + std::to_string(self_));
    }
  }
  const SessionId id = (static_cast<SessionId>(self_) << 32) |
                       (++session_counter_ & 0xFFFFFFFFull);
  SessionState& st = state_for(id);
  st.local = true;
  // The ambient session backs the no-argument end/abort overloads and every
  // operation outside a pinned scope: first-open wins. Spans recorded
  // outside any scope until end/abort are attributed to it.
  if (session_ == kNoSession) {
    session_ = id;
    telemetry_.tracer().set_session(current_session());
  }
  if (telemetry_.tracing()) {
    ScopedSession scope(*this, id);
    st.span = telemetry_.tracer().start_local(
        "session " + std::to_string(id), "session", telemetry_.now_ns());
  }
  return id;
}

Status Runtime::end_session() {
  if (session_ == kNoSession) {
    return failed_precondition("no active session");
  }
  return end_session(session_);
}

Status Runtime::end_session(SessionId id) {
  SessionState* found = sessions_.find(id);
  if (found == nullptr || !found->local) {
    return failed_precondition("session " + std::to_string(id) +
                               " is not open at this space");
  }
  // Pin the whole commit to `id`: every nested fetch, flush, span, and
  // write-back below is attributed to this session even when the worker
  // interleaves other sessions' serves through full_dispatcher_.
  ScopedSession scope(*this, id);
  SessionState& st = *found;
  // One session at a time serves nothing else while it commits. Concurrent
  // sessions must: a roundtrip that refuses to serve would deadlock two
  // grounds committing at each other.
  const RpcEndpoint::Dispatcher no_serve;
  const RpcEndpoint::Dispatcher& serve = multi_session_ ? full_dispatcher_ : no_serve;
  const std::uint64_t t_start = telemetry_.now_ns();
  poll_failures();
  SRPC_RETURN_IF_ERROR(flush_alloc_batches());
  st.status = SessionStatus::kCommitting;
  // Every failure below leaves the session open, so the caller may retry
  // end_session() or fall back to abort_session().
  auto fail = [&st](Status status) {
    st.status = SessionStatus::kActive;
    return status;
  };

  // Examine the modified data set and write each datum back to its home,
  // one coalesced batch per home peer. Data whose final content the home
  // already observed (epoch/fingerprint match from the last hop) is skipped
  // entirely; a home with nothing left to learn gets no message.
  //
  // The batch travels as WB_PREPARE: the home stages it in a shadow buffer
  // keyed by {session, epoch} and applies nothing yet. Only when EVERY home
  // has acknowledged its prepare does phase two commit them all — so a
  // crash, partition, or deadline during phase one aborts cleanly
  // everywhere and no home is left half-new.
  std::set<SpaceId> homes;
  for (const auto& d : cache_.collect_modified_deltas()) {
    if (d.id.space != self_) homes.insert(d.id.space);
  }

  const std::uint64_t epoch = ++wb_epoch_;
  struct Stage {
    SpaceId home = 0;
    std::vector<ShippedRecord> shipped;
    Message prepare;
  };
  // Encode every home's batch first (each snapshot rides one frame either
  // way), then ship. With parallel_commit_ every frame is in flight before
  // the first ack is collected, so each phase costs the slowest home
  // rather than the sum of all round trips (bench/fig9_pipeline measures
  // the difference).
  std::vector<Stage> stages;
  for (const SpaceId home : homes) {
    Stage stage{home, {}, request(MessageType::kWbPrepare, home, id)};
    ByteBuffer section;
    std::size_t encoded = 0;
    Status attached = attach_modified_set(section, home, /*write_back=*/true,
                                          &encoded, &stage.shipped);
    if (!attached.is_ok()) return fail(attached);
    if (encoded == 0) continue;  // home already holds the final content
    xdr::Encoder enc(stage.prepare.payload);
    enc.put_u64(epoch);
    if (multi_session_) {
      // The write manifest (home addresses this batch overwrites) lets the
      // home arbitrate before it stages anything.
      enc.put_u32(static_cast<std::uint32_t>(stage.shipped.size()));
      for (const ShippedRecord& r : stage.shipped) enc.put_u64(r.id.address);
    }
    stage.prepare.payload.append(section.view());
    stages.push_back(std::move(stage));
  }

  // Counts and annotates one phase frame; builds the phase-two/abort frame
  // (epoch only).
  auto note_frame = [&](std::uint64_t& counter, const char* what, SpaceId home) {
    ++counter;
    if (telemetry_.tracing()) {
      telemetry_.annotate(std::string(what) + ": home " + std::to_string(home) +
                          " epoch " + std::to_string(epoch));
    }
  };
  auto epoch_frame = [&](MessageType type, SpaceId home) {
    Message msg = request(type, home, id);
    xdr::Encoder enc(msg.payload);
    enc.put_u64(epoch);
    return msg;
  };

  // Phase one. WB_PREPARE is idempotent (it re-stages the same bytes under
  // the same epoch): lost acks are recovered by retransmission.
  std::vector<const Stage*> prepared;
  Status failure = fan_out(
      stages.size(), MessageType::kWbPrepareAck, parallel_commit_, serve,
      [&](std::size_t i) {
        note_frame(stats_.wb_prepares, "wb prepare", stages[i].home);
        return std::move(stages[i].prepare);
      },
      [&](std::size_t i, Result<Message> ack) {
        if (!ack) {
          if (ack.status().code() == StatusCode::kConflict) {
            // WB_CONFLICT: the home's arbiter refused the prepare (stale
            // read, wound, or an older writer holds the object). The
            // session lost; the caller aborts it and retries under backoff.
            ++stats_.wb_conflicts;
            telemetry_.count("concurrency.wb_conflicts");
            telemetry_.flight().event(FlightEventKind::kWbConflict, vnow_ns(),
                                      stages[i].home, "lost arbitration", 0, id);
            SRPC_DEBUG << name_ << ": session " << id
                       << " lost arbitration at home " << stages[i].home
                       << ": " << ack.status().to_string();
          }
          return ack.status();
        }
        prepared.push_back(&stages[i]);
        return Status::ok();
      });

  if (!failure.is_ok()) {
    // Phase one failed somewhere: roll back every staged home, best-effort
    // (a home we cannot reach will drop its stage when the session's
    // INVALIDATE or tombstone eventually lands). The decision is logged
    // before any abort ships: if we crash mid-sweep, our successor's REJOIN
    // tells the still-staged homes to roll back.
    if (recovery_ != nullptr && !prepared.empty()) {
      recovery_->note_decision(id, epoch, /*committed=*/false);
    }
    (void)fan_out(
        prepared.size(), MessageType::kWbAbortAck, parallel_commit_, serve,
        [&](std::size_t i) {
          note_frame(stats_.wb_aborts, "wb abort", prepared[i]->home);
          return epoch_frame(MessageType::kWbAbort, prepared[i]->home);
        },
        [&](std::size_t i, Result<Message> ack) {
          if (!ack) {
            SRPC_WARN << name_ << ": write-back abort to space "
                      << prepared[i]->home
                      << " failed: " << ack.status().to_string();
          }
          return Status::ok();
        });
    return fail(failure);
  }

  // Phase two: every home staged successfully — commit them all. A failure
  // here is safe to retry: homes that already committed re-ack the
  // duplicate epoch, homes that still hold the stage apply it, and a
  // retried end_session() re-prepares only what the fingerprint
  // suppression has not already committed.
  //
  // The commit decision is journaled BEFORE the first WB_COMMIT ships —
  // this is the atomic commit point of the session. If we crash between
  // here and the last ack, our successor's REJOIN carries the decision and
  // every home still holding its stage rolls forward.
  if (recovery_ != nullptr && !prepared.empty()) {
    recovery_->note_decision(id, epoch, /*committed=*/true);
  }
  Status committed = fan_out(
      prepared.size(), MessageType::kWbCommitAck, parallel_commit_, serve,
      [&](std::size_t i) {
        note_frame(stats_.wb_commits, "wb commit", prepared[i]->home);
        return epoch_frame(MessageType::kWbCommit, prepared[i]->home);
      },
      [&](std::size_t i, Result<Message> ack) {
        if (!ack) return ack.status();
        commit_shipped(prepared[i]->home, prepared[i]->shipped);
        return Status::ok();
      });
  if (!committed.is_ok()) return fail(committed);

  // Multicast the invalidation to every space concerned with the session.
  // The explicit aborted=0 flag tells homes the session committed: their
  // extended_malloc storage owned by it is promoted to durable home data.
  // Multi-session mode multicasts only to the peers this session actually
  // touched (each forwards to its own touched set); single-session mode
  // keeps the whole-directory sweep.
  const std::vector<SpaceId> targets =
      multi_session_ ? std::vector<SpaceId>(st.touched.begin(), st.touched.end())
                     : directory_();
  Status invalidated = invalidate_peers(id, targets, /*aborted=*/false,
                                        parallel_commit_, serve,
                                        /*best_effort=*/false);
  if (!invalidated.is_ok()) return fail(invalidated);

  if (st.span != SpanRecorder::kNoSpan) {
    telemetry_.tracer().finish(st.span, telemetry_.now_ns(), /*ok=*/true);
  }
  ++stats_.sessions_committed;
  telemetry_.hist("session.commit_ns").record(telemetry_.now_ns() - t_start);
  telemetry_.observe_slo("SESSION_COMMIT", telemetry_.now_ns() - t_start);
  // Any arbitration state this session left in the local arbiter (it is
  // usually empty — grounds do not fetch from themselves) dies with it.
  arbiter_.release(id);
  close_session(id);
  return Status::ok();
}

Status Runtime::abort_session() {
  if (session_ != kNoSession) return abort_session(session_);
  // Sessionless data only: a local unwind is all there is, once no session
  // that could still be using it is open.
  if (active_sessions() == 0) close_session(kNoSession);
  return Status::ok();
}

Status Runtime::abort_session(SessionId id) {
  SessionState* st = sessions_.find(id);
  if (st == nullptr) return Status::ok();  // already gone — abort is idempotent
  ScopedSession scope(*this, id);
  ++stats_.sessions_aborted;
  telemetry_.flight().event(FlightEventKind::kSessionAbort, vnow_ns(),
                            kInvalidSpaceId, {}, 0, id);
  SRPC_DEBUG << name_ << ": aborting session " << id;
  poll_failures();
  st = sessions_.find(id);  // the safe point may have settled it
  if (st == nullptr) return Status::ok();
  st->status = SessionStatus::kAborted;
  // Un-flushed extended_malloc/free batches die with the session —
  // provisional identities never reached a home, so there is nothing to
  // undo remotely.
  st->memory_ops.clear();
  // Best-effort invalidation so peers drop (and tombstone) the session too:
  // the whole directory, one peer at a time and serving nothing else, or in
  // multi-session mode the touched peers (each cascades onward) while
  // serving. A failure never stops the local unwind — abort must leave the
  // runtime reusable even on a dead network — but it is reported to the
  // caller: an unreachable live peer still holds session state it will only
  // shed through its own tombstones or failure detection.
  std::vector<SpaceId> targets = directory_();
  RpcEndpoint::Dispatcher serve;
  if (multi_session_) {
    targets.assign(st->touched.begin(), st->touched.end());
    serve = full_dispatcher_;
  }
  const Status worst = invalidate_peers(id, targets, /*aborted=*/true,
                                        /*parallel=*/false, serve,
                                        /*best_effort=*/true);
  tombstone_session(id);
  arbiter_.release(id);
  // The roundtrips above may have served nested traffic; re-resolve the
  // state before the final unwind in case a cascade already closed it.
  // The heap (home data) is untouched — only session-scoped state dies.
  st = sessions_.find(id);
  if (st != nullptr && st->span != SpanRecorder::kNoSpan) {
    telemetry_.tracer().annotate(st->span, "session aborted", telemetry_.now_ns());
    telemetry_.tracer().finish(st->span, telemetry_.now_ns(), /*ok=*/false);
  }
  close_session(id);
  return worst;
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

Status Runtime::dispatch(Message msg) {
  // Pin the serve (and everything nested under it — spans, fetches, state
  // lookups) to the session the message names. This is what lets one
  // worker thread interleave many sessions without cross-talk.
  ScopedSession scope(*this, msg.session);
  // Stragglers of invalidated sessions are refused before they can touch
  // any state: a delayed CALL or WB_PREPARE must not repopulate the cache
  // of a session that is already gone. INVALIDATE itself stays servable
  // (retransmits must keep getting acks) and FETCH against tombstones is
  // refused so the requester fails fast rather than resurrecting the id.
  switch (msg.type) {
    case MessageType::kCall:
    case MessageType::kFetch:
    case MessageType::kAllocBatch:
    case MessageType::kWbPrepare:
    case MessageType::kWbCommit:
    case MessageType::kDeref:
      if (is_dead_session(msg.session)) {
        ++stats_.dead_session_rejections;
        SRPC_DEBUG << name_ << ": refusing " << to_string(msg.type)
                   << " from dead session " << msg.session;
        return send_error(msg, unavailable("session " +
                                           std::to_string(msg.session) +
                                           " was invalidated"));
      }
      break;
    default:
      break;
  }

  // Non-idempotent requests execute at most once: a duplicated delivery
  // (the reply for the first copy is en route) is absorbed by request id,
  // before any server span is recorded.
  if (msg.type == MessageType::kCall || msg.type == MessageType::kAllocBatch) {
    if (note_duplicate_request(msg.from, msg.seq)) {
      ++stats_.duplicate_requests_absorbed;
      SRPC_DEBUG << name_ << ": absorbing duplicate " << to_string(msg.type)
                 << " seq=" << msg.seq << " from " << msg.from;
      return Status::ok();
    }
  }

  // Server span covering the serve of one incoming request, parented to
  // the caller's client span through the wire TraceContext (hop + 1). A
  // retransmitted request carries the original context verbatim, so a
  // duplicate serve lands as a sibling of the first — the tree never
  // forks.
  SpanRecorder::Handle span = SpanRecorder::kNoSpan;
  if (telemetry_.tracing()) {
    switch (msg.type) {
      case MessageType::kCall:
      case MessageType::kFetch:
      case MessageType::kAllocBatch:
      case MessageType::kInvalidate:
      case MessageType::kWbPrepare:
      case MessageType::kWbCommit:
      case MessageType::kWbAbort:
      case MessageType::kPing:
      case MessageType::kRejoin:
      case MessageType::kDeref:
        span = telemetry_.tracer().start_server(
            msg.trace, "serve " + std::string(to_string(msg.type)),
            "rpc.server", telemetry_.now_ns());
        break;
      default:
        break;
    }
  }
  if (span == SpanRecorder::kNoSpan) {
    return dispatch_serve(std::move(msg));
  }
  Status served = dispatch_serve(std::move(msg));
  telemetry_.tracer().finish(span, telemetry_.now_ns(), served.is_ok());
  return served;
}

Status Runtime::dispatch_serve(Message msg) {
  switch (msg.type) {
    case MessageType::kCall:
      return serve_call(std::move(msg));
    case MessageType::kAllocBatch:
      return serve_alloc_batch(std::move(msg));
    case MessageType::kFetch:
      return serve_fetch(std::move(msg));
    case MessageType::kInvalidate:
      return serve_invalidate(std::move(msg));
    case MessageType::kWbPrepare:
      return serve_wb_prepare(std::move(msg));
    case MessageType::kWbCommit:
      return serve_wb_commit(std::move(msg));
    case MessageType::kWbAbort:
      // Always servable, even past the tombstone: a lost abort may be
      // retransmitted after the session's INVALIDATE already landed.
      return serve_wb_abort(std::move(msg));
    case MessageType::kPing:
      return serve_ping(std::move(msg));
    case MessageType::kRejoin:
      // Always servable — this is how a reincarnated peer re-enters the
      // world; dedup happens inside by {peer, incarnation}.
      return serve_rejoin(std::move(msg));
    case MessageType::kDeref:
      return serve_deref(std::move(msg));
    case MessageType::kShutdown:
      running_ = false;
      return Status::ok();
    case MessageType::kReturn:
    case MessageType::kFetchReply:
    case MessageType::kAllocReply:
    case MessageType::kInvalidateAck:
    case MessageType::kWbPrepareAck:
    case MessageType::kWbCommitAck:
    case MessageType::kWbAbortAck:
    case MessageType::kPong:
    case MessageType::kRejoinAck:
    case MessageType::kDerefReply:
    case MessageType::kError:
      // A reply whose request already completed: the first copy (or a
      // retransmit's twin) won the await. Absorb silently — this is the
      // sender half of request-id dedup.
      ++stats_.stale_replies_absorbed;
      SRPC_DEBUG << name_ << ": absorbing stale " << to_string(msg.type)
                 << " seq=" << msg.seq << " from " << msg.from;
      return Status::ok();
  }
  SRPC_WARN << name_ << ": dropping out-of-band " << to_string(msg.type)
            << " seq=" << msg.seq << " from " << msg.from;
  return Status::ok();
}

void Runtime::serve_forever() {
  // Label this worker's SRPC_LOG lines with the space name and, on the
  // simulated network, the virtual-clock time.
  if (sim_ != nullptr) {
    set_thread_log_context(
        name_.c_str(),
        [](void* arg) { return static_cast<const Runtime*>(arg)->vnow_ns(); },
        this);
  } else {
    set_thread_log_context(name_.c_str());
  }
  running_ = true;
  while (running_) {
    auto item = endpoint_.next();
    if (!item) break;  // mailbox closed
    if (std::holds_alternative<Task>(item.value())) {
      std::get<Task>(item.value())();
      continue;
    }
    Status served = dispatch(std::get<Message>(std::move(item).value()));
    if (!served.is_ok()) {
      SRPC_ERROR << name_ << ": dispatch failed: " << served.to_string();
    }
  }
}

}  // namespace srpc
